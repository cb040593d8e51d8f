package experiments

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/models"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
)

// tinyOptions is a minimal configuration exercising every pipeline stage.
func tinyOptions() Options {
	o := DefaultOptions()
	o.GraphScale = 10
	o.Apps = []frameworks.App{frameworks.PR}
	o.TraceIterations = 3
	o.MaxTestAccesses = 40_000
	o.TrainSamples = 200
	o.EvalSamples = 80
	o.Epochs = 1
	if raceDetectorEnabled {
		// The race gate (make race, CI) checks concurrency correctness,
		// not model quality, and the detector's ~10x slowdown would blow
		// the go test timeout at full tiny scale. Every pipeline stage
		// still runs, just on less data.
		o.GraphScale = 9
		o.MaxTestAccesses = 10_000
		o.TrainSamples = 60
		o.EvalSamples = 30
	}
	return o
}

// One shared runner keeps the test suite fast: traces and model suites are
// trained once and reused by every runner-under-test.
var shared = NewRunner(tinyOptions())

func runAndCheck(t *testing.T, name string, fn func() error, buf *bytes.Buffer, wantSubstrings ...string) {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s: no output", name)
	}
	for _, want := range wantSubstrings {
		if !strings.Contains(out, want) {
			t.Fatalf("%s: output missing %q:\n%s", name, want, out)
		}
	}
}

func TestOptionsScales(t *testing.T) {
	small := DefaultOptions()
	if small.ModelConfig().AttnDim >= PaperOptions().ModelConfig().AttnDim {
		t.Fatal("small model must be smaller")
	}
	if small.SimConfig().LLCSets >= PaperOptions().SimConfig().LLCSets {
		t.Fatal("small sim must be smaller")
	}
	if len(PaperOptions().Datasets) != 7 {
		t.Fatal("paper scale sweeps all 7 datasets")
	}
	if PaperOptions().graphScale() <= DefaultOptions().graphScale() {
		t.Fatal("paper graphs larger")
	}
}

// TestWorkloadFlags: the commands' shared flags override only what they set,
// on the named scale, and reject a bad scale or workload.
func TestWorkloadFlags(t *testing.T) {
	parse := func(training bool, args ...string) (Workload, Options, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		options := WorkloadFlags(fs, training)
		if err := fs.Parse(args); err != nil {
			return Workload{}, Options{}, err
		}
		return options()
	}
	w, opt, err := parse(false)
	if err != nil || w.String() != "gpop/pr/rmat" || !reflect.DeepEqual(opt, DefaultOptions()) {
		t.Fatalf("defaults: %v %+v %v", w, opt, err)
	}
	w, opt, err = parse(true, "-workload", "xstream/bfs/wiki", "-scale", "paper", "-graph-scale", "9", "-epochs", "3", "-seed", "5")
	want := PaperOptions()
	want.Datasets, want.GraphScale, want.Epochs, want.Seed = []string{"wiki"}, 9, 3, 5
	if err != nil || w.String() != "xstream/bfs/wiki" || !reflect.DeepEqual(opt, want) {
		t.Fatalf("overrides: %v %+v %v", w, opt, err)
	}
	for _, args := range [][]string{{"-scale", "huge"}, {"-workload", "gpop/pr"}, {"-epochs", "2"}} {
		if _, _, err := parse(false, args...); err == nil {
			t.Fatalf("%v must fail", args)
		}
	}
}

func TestWorkloadEnumeration(t *testing.T) {
	o := DefaultOptions()
	if got := len(o.Workloads()); got != 12 {
		t.Fatalf("full matrix = %d workloads, want 12 (Table 1)", got)
	}
	o.Apps = []frameworks.App{frameworks.TC}
	wls := o.Workloads()
	if len(wls) != 1 || wls[0].Framework != "powergraph" {
		t.Fatalf("TC filter = %v", wls)
	}
	if wls[0].String() == "" {
		t.Fatal("String")
	}
}

func TestPipelineData(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	d, err := shared.Data(wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.LLCTrain) == 0 || len(d.LLCTest) == 0 || len(d.TestRaw) == 0 {
		t.Fatal("empty pipeline outputs")
	}
	if d.BaselineMetrics.IPC() <= 0 {
		t.Fatal("baseline sim did not run")
	}
	// Cache must return the identical object.
	d2, err := shared.Data(wl)
	if err != nil || d2 != d {
		t.Fatal("data not cached")
	}
	if _, err := shared.Data(Workload{Framework: "nope", App: frameworks.PR, Dataset: "rmat"}); err == nil {
		t.Fatal("unknown framework must fail")
	}
	if _, err := shared.Data(Workload{Framework: "gpop", App: frameworks.PR, Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}

func TestSuiteTrainingAndCache(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	s, err := shared.Suite(wl)
	if err != nil {
		t.Fatal(err)
	}
	if s.Train == nil || s.Test == nil || len(s.PSDelta.Models) != s.NumPhases {
		t.Fatal("suite incomplete")
	}
	s2, err := shared.Suite(wl)
	if err != nil || s2 != s {
		t.Fatal("suite not cached")
	}
}

// TestSnapshotMatchesRunner: the deploy artifact mpgraph-train writes is the
// runner's phase-specific pair. Saved, reloaded and assembled as mpgraph-sim
// assembles it, it simulates to exactly Runner.MPGraph's metrics; its f16
// form loads and simulates.
func TestSnapshotMatchesRunner(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	s, err := shared.Suite(wl)
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(mp *core.MPGraph, err error) sim.Metrics {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := shared.Simulate(wl, mp)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := simulate(shared.MPGraph(wl, core.DefaultOptions()))
	pm, err := models.NewPrefetcherModels(s.Train, s.PSDelta, s.PSPage)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		save func(io.Writer) error
	}{{"MPSF", pm.Save}, {"MPSH", pm.SaveF16}} {
		var buf bytes.Buffer
		if err := f.save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := models.LoadPrefetcherModels(&buf)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got := simulate(shared.AssembleMPGraph(core.DefaultOptions(), loaded.Cfg.HistoryT, loaded.DeltaModels(), loaded.PageModels()))
		if f.name == "MPSF" && got != want {
			t.Fatalf("MPSF artifact simulates to\n%+v\nwant Runner.MPGraph's\n%+v", got, want)
		}
	}
}

func TestStaticTables(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "table1", func() error { return TableFrameworks(&buf, shared) }, &buf, "gpop", "GAS")
	buf.Reset()
	runAndCheck(t, "table2", func() error { return TableDatasets(&buf, shared) }, &buf, "roadCA", "rmat")
	buf.Reset()
	runAndCheck(t, "table3", func() error { return TableSimParams(&buf, shared) }, &buf, "DRAM", "LL cache")
	buf.Reset()
	runAndCheck(t, "table5", func() error { return TableAMMAConfig(&buf, shared) }, &buf, "History T", "params")
}

func TestCharacterizationFigures(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "fig2", func() error { return FigurePCA(&buf, shared) }, &buf, "Separation")
	buf.Reset()
	runAndCheck(t, "fig3", func() error { return FigurePageJumps(&buf, shared) }, &buf, "scatter", "gather")
}

func TestPhaseDetectionTable(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "table4", func() error { return TablePhaseDetection(&buf, shared) }, &buf,
		"kswin", "soft-kswin", "dt", "soft-dt")
	buf.Reset()
	runAndCheck(t, "fig9", func() error { return FigureCaseStudy(&buf, shared) }, &buf, "Soft-KSWIN")
}

func TestPredictionTables(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "table6", func() error { return TableDeltaPrediction(&buf, shared) }, &buf, "AMMA-PS")
	buf.Reset()
	runAndCheck(t, "table7", func() error { return TablePagePrediction(&buf, shared) }, &buf, "AMMA-PS")
}

func TestPrefetchFigures(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "fig10", func() error { return FigurePrefetchAccuracy(&buf, shared) }, &buf, "mpgraph", "bo")
	buf.Reset()
	runAndCheck(t, "fig11", func() error { return FigurePrefetchCoverage(&buf, shared) }, &buf, "average")
	buf.Reset()
	runAndCheck(t, "fig12", func() error { return FigureIPC(&buf, shared) }, &buf, "Framework avg")
}

func TestComplexityTable(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "table8", func() error { return TableComplexity(&buf, shared) }, &buf, "MPGraph", "O(nl)")
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "ablation-cstp", func() error { return AblationCSTP(&buf, shared) }, &buf, "cstp-full", "spatial-only")
	buf.Reset()
	runAndCheck(t, "ablation-phase", func() error { return AblationPhases(&buf, shared) }, &buf, "oracle")
}

func TestCompressionFigures(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "fig13", func() error { return FigureDistillation(&buf, shared) }, &buf, "teacher", "+KD")
	buf.Reset()
	runAndCheck(t, "fig14", func() error { return FigureDistancePrefetch(&buf, shared) }, &buf, "MPGraph+DP", "BO")
}

func TestAblationPerCore(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "ablation-percore", func() error { return AblationPerCore(&buf, shared) }, &buf,
		"per-core detectors", "shared detector")
}

func TestExtendedBaselines(t *testing.T) {
	var buf bytes.Buffer
	runAndCheck(t, "extended", func() error { return TableExtendedBaselines(&buf, shared) }, &buf,
		"vldp", "domino", "imp", "sms", "markov", "ensemble", "bo+throttle")
}

// TestF32Option: each reduced-precision tier (Options.Int8, Options.F32)
// swaps the MPGraph suite for its mirrors through the one tier cell
// (single-flight, cached), the mirrors drive a working prefetcher, and
// selecting both tiers is rejected.
func TestF32Option(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	if _, err := shared.Suite(wl); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		set  func(*Options)
	}{
		{"int8", func(o *Options) { o.Int8 = true }},
		{"f32", func(o *Options) { o.F32 = true }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			r2 := NewRunner(shared.Opt)
			tier.set(&r2.Opt)
			if got := r2.Opt.tier(); got != tier.name {
				t.Fatalf("tier %q, want %q", got, tier.name)
			}
			r2.suites = shared.suites // reuse the trained suite; conversion is the unit under test
			r2.data = shared.data
			r2.graphs = shared.graphs

			tp, err := r2.tierPS(wl)
			if err != nil {
				t.Fatal(err)
			}
			// Both tiers score on the f32 kernels: int8 is a weight codec
			// whose mirror is an f32 model.
			for p, sub := range tp.delta.Models {
				if _, ok := sub.(*models.F32AMMADelta); !ok {
					t.Fatalf("phase %d delta is %T, want *models.F32AMMADelta", p, sub)
				}
			}
			for p, sub := range tp.page.Models {
				if _, ok := sub.(*models.F32AMMAPage); !ok {
					t.Fatalf("phase %d page is %T, want *models.F32AMMAPage", p, sub)
				}
			}
			tp2, err := r2.tierPS(wl)
			if err != nil || tp2 != tp {
				t.Fatal("tier pair not cached")
			}

			mp, err := r2.MPGraph(wl, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			m, base, err := r2.Simulate(wl, mp)
			if err != nil {
				t.Fatal(err)
			}
			if m.IPC() <= 0 || base.IPC() <= 0 {
				t.Fatalf("%s sweep cell did not simulate", tier.name)
			}
			if err := mp.Health(); err != nil {
				t.Fatalf("healthy %s suite latched: %v", tier.name, err)
			}
		})
	}

	bad := shared.Opt
	bad.F32, bad.Int8 = true, true
	if err := bad.validatePrecision(); err == nil {
		t.Fatal("F32+Int8 must be a configuration error")
	}
}

// TestPanelCensus pins the traffic tensor.WindowRows is built for: in one
// MPGraph sweep cell, at either float precision, every product that reaches
// the panel kernels has m = 1 (a pooled head), m = T (a modality encoder, an
// attention head) or m = 2T (the MMAF's two concatenated modalities and the
// Transformer over them) — nothing a nine-row tile would leave a remainder
// of.
func TestPanelCensus(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	if _, err := shared.Suite(wl); err != nil {
		t.Fatal(err)
	}
	if shared.Opt.ModelConfig().HistoryT != tensor.WindowRows {
		t.Fatalf("sweep models run T = %d, the panel tile is built for %d", shared.Opt.ModelConfig().HistoryT, tensor.WindowRows)
	}
	for _, f32 := range []bool{false, true} {
		r := NewRunner(shared.Opt)
		r.Opt.F32 = f32
		r.suites, r.data, r.graphs = shared.suites, shared.data, shared.graphs
		mp, err := r.MPGraph(wl, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// The census map is not synchronised, so the cell runs on one P,
		// where no page call leaves the caller (models.Pair): the same
		// products, in order.
		restore := runtime.GOMAXPROCS(1)
		stop := tensor.CountPanelShapes()
		_, _, err = r.Simulate(wl, mp)
		census := stop()
		runtime.GOMAXPROCS(restore)
		if err != nil {
			t.Fatal(err)
		}
		if len(census) == 0 {
			t.Skip("no AVX-512F panel kernels on this machine")
		}
		shapes := make([]tensor.PanelShape, 0, len(census))
		for s := range census {
			shapes = append(shapes, s)
		}
		sort.Slice(shapes, func(i, j int) bool {
			a, b := shapes[i], shapes[j]
			if a.M != b.M {
				return a.M < b.M
			}
			if a.K != b.K {
				return a.K < b.K
			}
			return a.N < b.N
		})
		for _, s := range shapes {
			t.Logf("f32=%v m=%d k=%d n=%d: %d calls", f32, s.M, s.K, s.N, census[s])
			if s.M != 1 && s.M != tensor.WindowRows && s.M != 2*tensor.WindowRows {
				t.Errorf("f32=%v: %d products of m=%d k=%d n=%d, want m in {1, %d, %d}",
					f32, census[s], s.M, s.K, s.N, tensor.WindowRows, 2*tensor.WindowRows)
			}
		}
	}
}

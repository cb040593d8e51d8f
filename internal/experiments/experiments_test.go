package experiments

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/models"
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

// TestF32Option: Options.F32 swaps the MPGraph suite for the narrowed f32
// mirrors (single-flight, cached), rejects incompatible combinations, and
// the converted pair drives a working prefetcher.
func TestF32Option(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	if _, err := shared.Suite(wl); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(shared.Opt)
	r2.Opt.F32 = true
	r2.suites = shared.suites // reuse the trained suite; conversion is the unit under test
	r2.data = shared.data
	r2.graphs = shared.graphs

	fp, err := r2.f32PS(wl)
	if err != nil {
		t.Fatal(err)
	}
	for p, sub := range fp.delta.Models {
		if _, ok := sub.(*models.F32AMMADelta); !ok {
			t.Fatalf("phase %d delta is %T, want *models.F32AMMADelta", p, sub)
		}
	}
	for p, sub := range fp.page.Models {
		if _, ok := sub.(*models.F32AMMAPage); !ok {
			t.Fatalf("phase %d page is %T, want *models.F32AMMAPage", p, sub)
		}
	}
	fp2, err := r2.f32PS(wl)
	if err != nil || fp2 != fp {
		t.Fatal("f32 pair not cached")
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
		t.Fatal("f32 sweep cell did not simulate")
	}
	if err := mp.Health(); err != nil {
		t.Fatalf("healthy f32 suite latched: %v", err)
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
		stop := tensor.CountPanelShapes()
		_, _, err = r.Simulate(wl, mp)
		census := stop()
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

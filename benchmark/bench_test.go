package main

import (
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
)

// unitRE is the contract's unit grammar.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestDeclarations checks spec.go against the driver's contract.
func TestDeclarations(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	gated := 0
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if w.Gated {
			gated++
		}
	}
	if gated < 2 || gated > 8 {
		t.Errorf("%d gated workloads, want 2..8", gated)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// TestBenchmarkJSONInSync pins the committed declaration to spec.go.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run -C benchmark . -spec > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
}

func smokeCtx(t *testing.T) *runCtx {
	return &runCtx{seed: 1, seconds: 0, sc: smokeScale, clients: 2, outDir: t.TempDir()}
}

func metricNames(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, m := range specs {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func reportedNames(r *report) []string {
	out := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at minimum size, with tracing off and on:
// the run must be correct and print exactly the declared metric set.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			name := spec.Name + "/end-to-end"
			if traced {
				name = spec.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run, declared := runUntraced, endToEnd
				if traced {
					run, declared = runTraced, perLayer
				}
				rep, err := run(spec, smokeCtx(t))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range rep.Checks {
					if !c.OK {
						t.Errorf("check %q failed: %s", c.Name, c.Detail)
					}
				}
				if rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
				}
				got, want := reportedNames(rep), metricNames(declared)
				if len(got) != len(want) {
					t.Fatalf("printed %d metrics, declared %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("printed metric %q, declared %q", got[i], want[i])
					}
				}
				for n, v := range rep.Metrics {
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v", n, v.Value)
					}
					if !traced && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", n)
					}
				}
				if traced {
					sum := 0.0
					for _, s := range rep.Stages {
						sum += s
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("stage shares sum to %v", sum)
					}
					// Full-size passes leave under 0.2% unattributed (README);
					// at smoke size constructing the prefetcher sets is a
					// visible part of a pass, so the pin is looser here.
					if u := rep.Stages["unattributed"]; u > 0.10 {
						t.Errorf("unattributed share %.3f: the spans miss a layer", u)
					}
				}
			})
		}
	}
}

// TestDecoratorsTransparent pins that the timing decorators change nothing a
// simulation can observe: a decorated prefetcher, and the instrumented MPGraph
// assembled through the detector and scheduler seams, give the bare one's
// sim.Metrics bit for bit.
func TestDecoratorsTransparent(t *testing.T) {
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			t.Parallel()
			rc := smokeCtx(t)
			fx, err := newMLFixture(mlOptions(rc.sc, tier, 0), rc.seed)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := fx.primary(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fx.simulate(fx.guard(bare))
			if err != nil {
				t.Fatal(err)
			}
			if want.PrefetchesIssued == 0 {
				t.Fatal("mpgraph issued nothing; the comparison would be vacuous")
			}

			again, err := fx.primary(nil)
			if err != nil {
				t.Fatal(err)
			}
			decorated := newTimedPrefetcher(fx.guard(again))
			if got, err := fx.simulate(decorated); err != nil || got != want {
				t.Errorf("decorated %v (err %v), bare %v", got, err, want)
			}
			if decorated.p.sampled == 0 || decorated.p.opNS == 0 {
				t.Error("decorator timed nothing")
			}

			twin, err := fx.tracedPrimary(tier, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := fx.simulate(twin); err != nil || got != want {
				t.Errorf("instrumented twin %v (err %v), bare %v", got, err, want)
			}
			if twin.p.modelCalls == 0 || twin.p.modelNS == 0 {
				t.Error("twin timed no model call")
			}

			// A classic prefetcher goes through the sampled-timer branch.
			bo := func() sim.Prefetcher { return prefetch.NewBO(prefetch.DefaultBOConfig()) }
			wantBO, err := fx.simulate(bo())
			if err != nil {
				t.Fatal(err)
			}
			timedBO := newTimedPrefetcher(bo())
			if got, err := fx.simulate(timedBO); err != nil || got != wantBO {
				t.Errorf("decorated BO %v (err %v), bare %v", got, err, wantBO)
			}
			if timedBO.p.sampled == 0 || timedBO.p.sampled == timedBO.p.calls {
				t.Errorf("BO: %d of %d calls timed, want a sample", timedBO.p.sampled, timedBO.p.calls)
			}
		})
	}
}

// TestQuartilesMatchPython checks quartiles against
// statistics.quantiles(values, n=4), the driver's rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestFloorPass: the floor pass takes every lap from the pass that ran it
// fastest, sums the laps of an operation that takes several, keeps the
// latencies measured within a block lap together with that lap, and reads the
// slowest lane; passes of different shapes are refused.
func TestFloorPass(t *testing.T) {
	mk := func(serial [3]float64, b1, b2 lap) passResult {
		return passResult{events: 10, lanes: []*lane{
			{laps: []lap{{ms: serial[0], op: -1}, {ms: serial[1], op: 0}, {ms: serial[2], op: 0}}},
			{laps: []lap{b1, b2}},
		}}
	}
	passes := []passResult{
		mk([3]float64{1, 10, 30}, lap{ms: 20, op: -1, opsMS: []float64{5, 6}}, lap{ms: 40, op: -1, opsMS: []float64{7, 8}}),
		mk([3]float64{2, 8, 35}, lap{ms: 25, op: -1, opsMS: []float64{1, 2}}, lap{ms: 30, op: -1, opsMS: []float64{3, 4}}),
	}
	wallS, ops, err := floorPass(passes)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.050; math.Abs(wallS-want) > 1e-12 {
		t.Errorf("floor wall %v s, want %v (lane 2: 20 + 30 ms)", wallS, want)
	}
	if want := []float64{38, 5, 6, 3, 4}; !slices.Equal(ops, want) {
		t.Errorf("floor operations %v, want %v", ops, want)
	}
	if perS, err := eventsPerS(passes); err != nil || math.Abs(perS-200) > 1e-9 {
		t.Errorf("events/s %v (err %v), want 200", perS, err)
	}
	passes[1].lanes[1].laps[1].opsMS = []float64{3}
	if _, _, err := floorPass(passes); err == nil {
		t.Error("passes with different laps were folded")
	}
}

// TestCompareRefusesAcrossHosts: host-time metrics are not compared when the
// environment headers differ; simulated metrics still are.
func TestCompareRefusesAcrossHosts(t *testing.T) {
	mk := func(cpu string, eps, gain float64) *report {
		return &report{Env: envHeader{CPUModel: cpu, NumCPU: 2}, Workload: "sweep-ml-f64", Metrics: map[string]metricValue{
			"events_per_s": {Value: eps, Unit: "1/s"},
			"ipc_gain_pct": {Value: gain, Unit: "%"},
		}}
	}
	if v, refused := compareReports(mk("a", 100, 50), mk("a", 50, 50)); len(v) != 1 || len(refused) != 0 {
		t.Errorf("same host, halved throughput: violations %v, refused %v", v, refused)
	}
	v, refused := compareReports(mk("a", 100, 50), mk("b", 50, 40))
	if len(refused) != 1 || refused[0] != "events_per_s" {
		t.Errorf("different hosts: refused %v, want [events_per_s]", refused)
	}
	if len(v) != 1 {
		t.Errorf("different hosts: violations %v, want the simulated metric only", v)
	}
}

// TestCompareSlack: a set-up time that worsens by less than 0.3 s is within
// its bound whatever share of the base that is; one that worsens by more is
// held to the relative bound.
func TestCompareSlack(t *testing.T) {
	mk := func(s float64) *report {
		return &report{Workload: "sim-classic", Metrics: map[string]metricValue{"setup_s": {Value: s, Unit: "s"}}}
	}
	if v, _ := compareReports(mk(0.12), mk(0.18)); len(v) != 0 {
		t.Errorf("0.12 s -> 0.18 s: %v", v)
	}
	if v, _ := compareReports(mk(2.6), mk(3.6)); len(v) != 1 {
		t.Errorf("2.6 s -> 3.6 s: violations %v, want one", v)
	}
}

// TestAttribute checks self time = span − union of children − aggregates on
// a hand-built pass with overlapping children.
func TestAttribute(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "request", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "request", Start: 40, End: 90}, // overlaps span 2: union is 80
		{ID: 4, Parent: 2, Name: "http.handler", Start: 20, End: 50},
		{ID: 5, Parent: 3, Name: "http.handler", Start: 50, End: 80},
		{ID: 6, Parent: 1, Name: "session", Start: 20, End: 80, Aggs: []agg{
			{Name: "operate", BusyNS: 40}, {Name: "detector", BusyNS: 5}, {Name: "model", BusyNS: 25},
		}},
	}
	got := attribute(spans)
	want := stageNS{"unattributed": 20, "http": 40, "serve": 20, "controller": 10, "detector": 5, "model": 25}
	for _, s := range stageNames {
		if got[s] != want[s] {
			t.Errorf("stage %s = %d ns, want %d", s, got[s], want[s])
		}
	}
}

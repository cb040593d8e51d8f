package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `
goos: linux
goarch: amd64
pkg: mpgraph/internal/prefetch
cpu: some cpu
BenchmarkOperateDeltaLSTM-8 	    2000	     71578 ns/op	       0 B/op	       0 allocs/op
BenchmarkOperateDeltaLSTM-8 	    2000	     72000 ns/op	       0 B/op	       0 allocs/op
BenchmarkOperateDeltaLSTMF32-8 	    2000	     35894 ns/op	     512 B/op	      12 allocs/op
PASS
ok  	mpgraph/internal/prefetch	3.375s
pkg: mpgraph/internal/experiments
BenchmarkPrefetchSweepSerial 	       1	3685844300 ns/op
BenchmarkPrefetchSweepF32Serial 	       1	1717870046 ns/op
ok  	mpgraph/internal/experiments	14.201s
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5", len(results))
	}
	first := results[0]
	if first.Pkg != "mpgraph/internal/prefetch" {
		t.Fatalf("pkg = %q", first.Pkg)
	}
	if first.Name != "BenchmarkOperateDeltaLSTM" {
		t.Fatalf("name = %q (GOMAXPROCS suffix must be stripped)", first.Name)
	}
	if first.Iters != 2000 || first.NsPerOp != 71578 {
		t.Fatalf("iters/ns = %d/%g", first.Iters, first.NsPerOp)
	}
	variant := results[2]
	if variant.BytesPerOp != 512 || variant.AllocsPerOp != 12 {
		t.Fatalf("B/allocs = %d/%d", variant.BytesPerOp, variant.AllocsPerOp)
	}
	sweep := results[3]
	if sweep.Pkg != "mpgraph/internal/experiments" {
		t.Fatalf("sweep pkg = %q", sweep.Pkg)
	}
	if sweep.BytesPerOp != 0 || sweep.AllocsPerOp != 0 {
		t.Fatalf("missing B/op fields must stay zero, got %d/%d", sweep.BytesPerOp, sweep.AllocsPerOp)
	}
}

// TestParseBenchMetrics: a b.ReportMetric unit reaches the report, and
// repeated runs keep its largest value.
func TestParseBenchMetrics(t *testing.T) {
	const in = `pkg: mpgraph/internal/experiments
BenchmarkRunnerData-2 	       1	 93000000 ns/op	   1446456 retained-B	 21000000 B/op	    2100 allocs/op
BenchmarkRunnerData-2 	       1	 91000000 ns/op	   1446512 retained-B	 21000000 B/op	    2100 allocs/op
`
	results, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.BytesPerOp != 21000000 || r.AllocsPerOp != 2100 || r.Metrics["retained-B"] != 1446456 {
		t.Fatalf("parsed %+v", r)
	}
	c := collapse(results)
	if len(c) != 1 || c[0].NsPerOp != 91000000 || c[0].Metrics["retained-B"] != 1446512 {
		t.Fatalf("collapsed %+v", c)
	}
}

// TestCollapseKeepsBestRun: over repeated runs, ns/op, B/op and allocs/op
// each keep their fewest (a runtime thread start in one run's timed region
// must not read as an allocation), a count every run makes survives, metrics
// keep their largest, and iterations add up.
func TestCollapseKeepsBestRun(t *testing.T) {
	runs := []Result{
		{Pkg: "p", Name: "BenchmarkEngineNoPrefetch", Iters: 5, NsPerOp: 900, BytesPerOp: 0, AllocsPerOp: 0},
		{Pkg: "p", Name: "BenchmarkEngineNoPrefetch", Iters: 5, NsPerOp: 800, BytesPerOp: 208, AllocsPerOp: 1},
		{Pkg: "p", Name: "BenchmarkEngineNoPrefetch", Iters: 5, NsPerOp: 850, BytesPerOp: 0, AllocsPerOp: 0},
		{Pkg: "p", Name: "BenchmarkStepAllocates", Iters: 5, NsPerOp: 90, BytesPerOp: 48, AllocsPerOp: 2, Metrics: map[string]float64{"retained-B": 10}},
		{Pkg: "p", Name: "BenchmarkStepAllocates", Iters: 5, NsPerOp: 70, BytesPerOp: 32, AllocsPerOp: 1, Metrics: map[string]float64{"retained-B": 30}},
		{Pkg: "q", Name: "BenchmarkEngineNoPrefetch", Iters: 5, NsPerOp: 100, BytesPerOp: 16, AllocsPerOp: 1},
	}
	want := []Result{
		{Pkg: "p", Name: "BenchmarkEngineNoPrefetch", Iters: 15, NsPerOp: 800, BytesPerOp: 0, AllocsPerOp: 0},
		{Pkg: "p", Name: "BenchmarkStepAllocates", Iters: 10, NsPerOp: 70, BytesPerOp: 32, AllocsPerOp: 1, Metrics: map[string]float64{"retained-B": 30}},
		{Pkg: "q", Name: "BenchmarkEngineNoPrefetch", Iters: 5, NsPerOp: 100, BytesPerOp: 16, AllocsPerOp: 1},
	}
	if got := collapse(runs); !reflect.DeepEqual(got, want) {
		t.Fatalf("collapsed\n%+v\nwant\n%+v", got, want)
	}
}

func TestPairSpeedups(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	sp := pairSpeedups(results)
	if len(sp) != 2 {
		t.Fatalf("got %d speedup pairs, want 2", len(sp))
	}
	// The two float64 DeltaLSTM runs average to 71789 ns/op before pairing.
	lstm := sp[0]
	if lstm.Name != "OperateDeltaLSTMF32" {
		t.Fatalf("pair name = %q", lstm.Name)
	}
	if math.Abs(lstm.BaseNs-71789) > 1 {
		t.Fatalf("base ns = %g, want ~71789", lstm.BaseNs)
	}
	if math.Abs(lstm.Speedup-71789.0/35894.0) > 1e-9 {
		t.Fatalf("speedup = %g", lstm.Speedup)
	}
	sweep := sp[1]
	if sweep.Name != "PrefetchSweepF32Serial" {
		t.Fatalf("pair name = %q", sweep.Name)
	}
	if sweep.Speedup < 2 {
		t.Fatalf("sample sweep speedup = %g, want > 2", sweep.Speedup)
	}
}

func TestParseBenchRejectsMalformed(t *testing.T) {
	_, err := parseBench(strings.NewReader("BenchmarkBroken 12 fast\n"))
	if err == nil {
		t.Fatal("malformed benchmark line must error")
	}
}

func compareFixture() (Report, Report) {
	env := Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8, NumCPU: 8}
	old := Report{Env: env, Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkOperateFast", NsPerOp: 1000, AllocsPerOp: 0},
		{Pkg: "p", Name: "BenchmarkSuiteSave", NsPerOp: 5000, AllocsPerOp: 99},
	}}
	new := Report{Env: env, Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkOperateFast", NsPerOp: 1000, AllocsPerOp: 0},
		{Pkg: "p", Name: "BenchmarkSuiteSave", NsPerOp: 5500, AllocsPerOp: 99},
	}}
	return old, new
}

func TestCompareReportsClean(t *testing.T) {
	old, new := compareFixture()
	var sb strings.Builder
	// Inside the 15% threshold with no allocation gain: nothing trips.
	if n := compareReports(&sb, old, new); n != 0 {
		t.Fatalf("clean compare reported %d regressions:\n%s", n, sb.String())
	}
}

func TestCompareReportsNsRegression(t *testing.T) {
	old, new := compareFixture()
	new.Benchmarks[0].NsPerOp = 1151 // just over the 15% threshold
	var sb strings.Builder
	if n := compareReports(&sb, old, new); n != 1 {
		t.Fatalf("ns regression count = %d, want 1:\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION BenchmarkOperateFast ns/op") {
		t.Fatalf("missing ns regression line:\n%s", sb.String())
	}
	new.Benchmarks[0].NsPerOp = 1150 // exactly at the threshold: allowed
	sb.Reset()
	if n := compareReports(&sb, old, new); n != 0 {
		t.Fatalf("at-threshold compare reported %d regressions:\n%s", n, sb.String())
	}
}

func TestCompareReportsAllocRegression(t *testing.T) {
	old, new := compareFixture()
	new.Benchmarks[0].AllocsPerOp = 1
	var sb strings.Builder
	if n := compareReports(&sb, old, new); n != 1 {
		t.Fatalf("alloc regression count = %d, want 1:\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "allocs/op 0 -> 1") {
		t.Fatalf("missing alloc regression line:\n%s", sb.String())
	}
	// A row that allocates by design is held to the ns/op ratio: 99 -> 113
	// (+14%) passes, 99 -> 114 (+15.2%) fails.
	old, new = compareFixture()
	new.Benchmarks[1].AllocsPerOp = 113
	sb.Reset()
	if n := compareReports(&sb, old, new); n != 0 {
		t.Fatalf("alloc count inside the threshold reported %d regressions:\n%s", n, sb.String())
	}
	new.Benchmarks[1].AllocsPerOp = 114
	if n := compareReports(&sb, old, new); n != 1 || !strings.Contains(sb.String(), "allocs/op 99 -> 114") {
		t.Fatalf("alloc count over the threshold: %d regressions:\n%s", n, sb.String())
	}
}

func TestCompareReportsEnvMismatch(t *testing.T) {
	old, new := compareFixture()
	new.Env.GOMAXPROCS = 4
	new.Benchmarks[0].NsPerOp = 99999 // huge ns swing: ignored cross-env
	new.Benchmarks[0].AllocsPerOp = 2 // alloc gains still enforced
	var sb strings.Builder
	if n := compareReports(&sb, old, new); n != 1 {
		t.Fatalf("cross-env regression count = %d, want 1 (allocs only):\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "environment mismatch") {
		t.Fatalf("missing env-mismatch warning:\n%s", sb.String())
	}
}

func TestCompareReportsMissingBenchmark(t *testing.T) {
	old, new := compareFixture()
	new.Benchmarks = new.Benchmarks[1:] // drop the fast-path benchmark
	var sb strings.Builder
	if n := compareReports(&sb, old, new); n != 0 {
		t.Fatalf("missing benchmark must warn, not fail: %d regressions\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "missing from new report") {
		t.Fatalf("missing-benchmark warning absent:\n%s", sb.String())
	}
}

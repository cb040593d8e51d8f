package experiments

import (
	"runtime"
	"testing"

	"mpgraph/internal/frameworks"
)

// benchSweepOptions shrinks the sweep to one workload (powergraph/tc/rmat)
// so `make bench -benchtime=1x` stays in CI budget while still simulating
// the full six-prefetcher comparison set.
func benchSweepOptions() Options {
	o := tinyOptions()
	o.Apps = []frameworks.App{frameworks.TC}
	return o
}

// benchSweepRunner trains the workload suite outside the timer so the
// benchmark measures only the simulations.
func benchSweepRunner(b *testing.B, workers int) *Runner {
	b.Helper()
	o := benchSweepOptions()
	o.Workers = workers
	r := NewRunner(o)
	for _, wl := range o.Workloads() {
		if _, err := r.Prefetchers(wl); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func benchSweep(b *testing.B, r *Runner) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BenchSweep(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefetchSweep is the headline number: arena fast path, full
// worker pool (on a single-core host this equals the serial fast path).
func BenchmarkPrefetchSweep(b *testing.B) {
	benchSweep(b, benchSweepRunner(b, 0))
}

// BenchmarkPrefetchSweepSerial isolates the scheduler's multi-core gain
// (compare Sweep against this).
func BenchmarkPrefetchSweepSerial(b *testing.B) {
	benchSweep(b, benchSweepRunner(b, 1))
}

// BenchmarkSuiteTrain is the set-up every sweep cell, daemon start and test
// package pays before its first prediction: training the ten-model suite of
// one workload, at the settings of the repository benchmark's ML fixture
// (benchmark/fixture.go), its suite_train_s. The trace is generated outside
// the timer. The ten jobs run on GOMAXPROCS workers whatever Options.Workers
// says.
func BenchmarkSuiteTrain(b *testing.B) {
	o := DefaultOptions()
	o.GraphScale, o.TraceIterations, o.MaxTestAccesses = 10, 3, 6000
	o.TrainSamples, o.EvalSamples, o.Epochs = 200, 100, 1
	o.Seed, o.Workers = 1, 1
	w := Workload{Framework: "gpop", App: frameworks.PR, Dataset: "rmat"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRunner(o)
		if _, err := r.Data(w); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := r.Suite(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteTrainSerial is the same suite on one P, where the ten jobs run
// inline one after another: what the tape alone buys, and against
// BenchmarkSuiteTrain what the pool adds on this host.
func BenchmarkSuiteTrainSerial(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	BenchmarkSuiteTrain(b)
}

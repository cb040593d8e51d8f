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

// benchSweep recomputes the full prefetcher sweep, bypassing the Runner's
// row cache. Workload traces and trained model suites stay cached on r, so
// every iteration times only the simulations.
func benchSweep(b *testing.B, r *Runner) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := computePrefetchSweep(r); err != nil {
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

// BenchmarkSuiteTrain is the set-up of the paper's Tables 6 and 7: training
// all ten models of one workload's suite, at the settings of the repository
// benchmark's ML fixture (benchmark/fixture.go). The trace is generated
// outside the timer. The jobs — one per model, one per phase of the
// phase-specific pair — run on GOMAXPROCS workers whatever Options.Workers
// says.
func BenchmarkSuiteTrain(b *testing.B) {
	benchSuiteTrain(b, AllModels...)
}

// BenchmarkSuiteTrainSerial is the same suite on one P, where the jobs run
// inline one after another: the total training work, and against
// BenchmarkSuiteTrain what the pool adds on this host.
func BenchmarkSuiteTrainSerial(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	BenchmarkSuiteTrain(b)
}

// BenchmarkSuiteTrainPair is the training mpgraph-serve and every served or
// swept MPGraph pays: Suite(w) alone, the phase-specific delta/page pair as
// one job per phase each, the repository benchmark's suite_train_s.
func BenchmarkSuiteTrainPair(b *testing.B) {
	benchSuiteTrain(b)
}

// benchFixture is the repository benchmark's ML workload at the settings of
// its fixture (benchmark/fixture.go).
func benchFixture() (Options, Workload) {
	o := DefaultOptions()
	o.GraphScale, o.TraceIterations, o.MaxTestAccesses = 10, 3, 6000
	o.TrainSamples, o.EvalSamples, o.Epochs = 200, 100, 1
	o.Seed, o.Workers = 1, 1
	return o, Workload{Framework: "gpop", App: frameworks.PR, Dataset: "rmat"}
}

func benchSuiteTrain(b *testing.B, want ...SuiteModel) {
	o, w := benchFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRunner(o)
		if _, err := r.Data(w); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := r.Suite(w, want...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerData is the set-up before training: Runner.Data of the
// repository benchmark's ML workload, from the framework run to the three
// LLC captures, on a runner whose graph is already generated. B/op is what it
// allocates; retained-B is the live heap it leaves behind (DESIGN.md §8, "A
// suite trains what is read": the raw trace is not part of it).
func BenchmarkRunnerData(b *testing.B) {
	o, w := benchFixture()
	b.ReportAllocs()
	var retained int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRunner(o)
		if _, err := r.Graph(w.Dataset); err != nil {
			b.Fatal(err)
		}
		before := liveHeap()
		b.StartTimer()
		if _, err := r.Data(w); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained += liveHeap() - before
		runtime.KeepAlive(r)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N), "retained-B")
}

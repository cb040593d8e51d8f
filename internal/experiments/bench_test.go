package experiments

import (
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

package frameworks

import (
	"testing"

	"mpgraph/internal/graph"
)

// benchTrace times whole trace generations on the scale-11 R-MAT graph: the
// framework executing the application, the per-core streams, and their
// interleaving into the trace at each barrier. It reports the accesses
// generated per second alongside the time per trace.
func benchTrace(b *testing.B, f Framework, app App) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(11, 1))
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{MaxIterations: 2, Seed: 1, PartitionSize: 256}
	b.ReportAllocs()
	b.ResetTimer()
	accesses := 0
	for i := 0; i < b.N; i++ {
		tr, _, err := f.Run(g, app, opt)
		if err != nil {
			b.Fatal(err)
		}
		accesses += len(tr.Accesses)
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}

func BenchmarkGPOPPageRankTrace(b *testing.B) { benchTrace(b, NewGPOP(), PR) }
func BenchmarkXStreamBFSTrace(b *testing.B)   { benchTrace(b, NewXStream(), BFS) }
func BenchmarkPowerGraphCCTrace(b *testing.B) { benchTrace(b, NewPowerGraph(), CC) }

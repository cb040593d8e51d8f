package sim_test

import (
	"math/rand"
	"testing"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/graph"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// BenchmarkEngineNoPrefetch is the engine alone: 100k uniformly random
// accesses over four cores at Table 3's hierarchy, nearly all of them LLC
// misses. NewEngine (its caches are 4.5 MB to zero) is outside the timed
// region; Step allocates nothing.
func BenchmarkEngineNoPrefetch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := make([]trace.Access, 100_000)
	for i := range tr {
		tr[i] = trace.Access{Addr: uint64(rng.Intn(1<<24)) * 64, Core: uint8(i % 4), Gap: 3}
	}
	benchEngineRun(b, sim.DefaultConfig(), tr, sim.NoPrefetcher)
}

// benchEngineRun times whole simulations of tr, each on a fresh engine and a
// fresh prefetcher built outside the timed region.
func benchEngineRun(b *testing.B, cfg sim.Config, tr []trace.Access, pf func() sim.Prefetcher) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := sim.NewEngine(cfg, pf())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.Run(tr)
	}
}

// BenchmarkEngineRun is one sim-classic cell: the repository benchmark's
// GPOP/PageRank trace (R-MAT scale 11, four iterations, 256-vertex
// partitions) under its small-scale hierarchy (experiments.Options.SimConfig:
// 16 KB / 64 KB / 256 KB), engine and prefetcher together.
func BenchmarkEngineRun(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(11, 1))
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := frameworks.NewGPOP().Run(g, frameworks.PR, frameworks.Options{Cores: 4, MaxIterations: 4, Seed: 1, PartitionSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.L1Sets, cfg.L2Sets, cfg.LLCSets = 64, 128, 256
	for _, c := range []struct {
		name string
		pf   func() sim.Prefetcher
	}{
		{"bo", func() sim.Prefetcher { return prefetch.NewBO(prefetch.DefaultBOConfig()) }},
		{"vldp", func() sim.Prefetcher { return prefetch.NewVLDP(prefetch.DefaultVLDPConfig()) }},
		{"markov", func() sim.Prefetcher { return prefetch.NewMarkov(prefetch.DefaultMarkovConfig()) }},
		{"domino", func() sim.Prefetcher { return prefetch.NewDomino(prefetch.DefaultDominoConfig()) }},
	} {
		b.Run(c.name, func(b *testing.B) { benchEngineRun(b, cfg, tr.Accesses, c.pf) })
	}
}

func BenchmarkCacheLookupInsert(b *testing.B) {
	c, _ := sim.NewCache("bench", 2048, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := uint64(i) % (1 << 16)
		if hit, _, _ := c.Lookup(block, true); !hit {
			c.Insert(block, false, 0)
		}
	}
}

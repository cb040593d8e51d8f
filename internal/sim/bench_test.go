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

// BenchmarkCache times one cache operation on one full set of a Table 3 LLC
// (2048 sets × 16 ways): a hit on the most recent line, a hit on the least
// recent (the line moves across the whole set), a miss plus the fill that
// evicts the last way, and a Contains miss (a scan of every way). Each
// reads 0 allocs/op.
func BenchmarkCache(b *testing.B) {
	const sets, ways = 2048, 16
	// block(k) is the k-th block of set 5; fill leaves blocks 0..ways-1
	// resident, block ways-1 first and block 0 last, and starts the timer.
	block := func(k int) uint64 { return uint64(k*sets + 5) }
	fill := func(b *testing.B) *sim.Cache {
		c, err := sim.NewCache("bench", sets, ways)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < ways; k++ {
			c.Insert(block(k), false, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		return c
	}
	b.Run("hit-front", func(b *testing.B) {
		c := fill(b)
		for i := 0; i < b.N; i++ {
			c.Lookup(block(ways - 1))
		}
	})
	// Touching the last line makes the next block the last: blocks 0, 1, …
	// in turn are always the least recent.
	b.Run("hit-last", func(b *testing.B) {
		c := fill(b)
		for i := 0; i < b.N; i++ {
			c.Lookup(block(i % ways))
		}
	})
	// Of ways+1 blocks taken in turn, the next is the one evicted ways
	// fills ago.
	b.Run("miss-fill", func(b *testing.B) {
		c := fill(b)
		for i := 0; i < b.N; i++ {
			k := block((ways + i) % (ways + 1))
			if hit, _, _ := c.Lookup(k); !hit {
				c.Insert(k, false, 0)
			}
		}
	})
	b.Run("contains-miss", func(b *testing.B) {
		c := fill(b)
		for i := 0; i < b.N; i++ {
			c.Contains(block(ways))
		}
	})
}

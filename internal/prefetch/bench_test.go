package prefetch

import (
	"testing"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/graph"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// BenchmarkClassicOperate times one Operate of each classic prefetcher on
// the LLC stream of the repository benchmark's GPOP/PageRank trace (the one
// BenchmarkEngineRun in internal/sim simulates, filtered by the same
// small-scale hierarchy with no prefetcher), replayed lap after lap on one
// warm instance.
func BenchmarkClassicOperate(b *testing.B) {
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
	eng, err := sim.NewEngine(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	var stream []sim.LLCAccess
	eng.Recorder = func(a trace.Access, hit bool) {
		stream = append(stream, sim.LLCAccess{Block: trace.Block(a.Addr), PC: a.PC, Core: a.Core, Hit: hit, Write: a.Write, Phase: a.Phase})
	}
	eng.Run(tr.Accesses)
	for _, pf := range []sim.Prefetcher{
		NewBO(DefaultBOConfig()), NewISB(DefaultISBConfig()), NewSMS(DefaultSMSConfig()),
		NewVLDP(DefaultVLDPConfig()), NewDomino(DefaultDominoConfig()), NewMarkov(DefaultMarkovConfig()),
		NewIMP(DefaultIMPConfig()),
	} {
		b.Run(pf.Name(), func(b *testing.B) {
			for _, a := range stream {
				pf.Operate(a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pf.Operate(stream[i%len(stream)])
			}
		})
	}
}

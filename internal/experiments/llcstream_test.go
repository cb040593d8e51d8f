package experiments

import (
	"testing"

	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// llcKey is what a prefetcher sees of an LLC access, less the hit flag.
type llcKey struct {
	block, pc   uint64
	core, phase uint8
	write       bool
}

// recordingPrefetcher logs every access Operate is handed and passes it on,
// reporting the inner prefetcher's inference latency so the engine times it
// as it would unwrapped.
type recordingPrefetcher struct {
	sim.Prefetcher
	seen []llcKey
}

func (p *recordingPrefetcher) Operate(acc sim.LLCAccess) []uint64 {
	p.seen = append(p.seen, llcKey{acc.Block, acc.PC, acc.Core, acc.Phase, acc.Write})
	return p.Prefetcher.Operate(acc)
}

func (p *recordingPrefetcher) InferenceLatencyCycles() uint64 {
	if l, ok := p.Prefetcher.(sim.InferenceLatency); ok {
		return l.InferenceLatencyCycles()
	}
	return 0
}

// TestLLCStreamIndependentOfPrefetcher: L1 and L2 never hold prefetches and
// nothing back-invalidates them, so which demand accesses reach the LLC, in
// which order, does not depend on the prefetcher — only their hit flags do.
// The LLC capture models train on, the served streams and the sweep all
// assume it. Every classic prefetcher and every prefetcher of
// Runner.Prefetchers must be handed the no-prefetch Recorder's stream of
// (Block, PC, Core, Write, Phase), access for access.
func TestLLCStreamIndependentOfPrefetcher(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	d, err := shared.Data(wl)
	if err != nil {
		t.Fatal(err)
	}
	raw := d.TestRaw
	cfg := shared.Opt.SimConfig()

	eng, err := sim.NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []llcKey
	eng.Recorder = func(a trace.Access, hit bool) {
		want = append(want, llcKey{trace.Block(a.Addr), a.PC, a.Core, a.Phase, a.Write})
	}
	eng.Run(raw)
	if len(want) == 0 {
		t.Fatal("no access reached the LLC")
	}

	pfs := []sim.Prefetcher{
		prefetch.NewBO(prefetch.DefaultBOConfig()),
		prefetch.NewISB(prefetch.DefaultISBConfig()),
		prefetch.NewSMS(prefetch.DefaultSMSConfig()),
		prefetch.NewVLDP(prefetch.DefaultVLDPConfig()),
		prefetch.NewDomino(prefetch.DefaultDominoConfig()),
		prefetch.NewMarkov(prefetch.DefaultMarkovConfig()),
		prefetch.NewIMP(prefetch.DefaultIMPConfig()),
	}
	ml, err := shared.Prefetchers(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range append(pfs, ml...) {
		rec := &recordingPrefetcher{Prefetcher: pf}
		eng, err := sim.NewEngine(cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		m := eng.Run(raw)
		if len(rec.seen) != len(want) {
			t.Fatalf("%s: Operate saw %d LLC accesses, the no-prefetch run %d", pf.Name(), len(rec.seen), len(want))
		}
		for i := range want {
			if rec.seen[i] != want[i] {
				t.Fatalf("%s: LLC access %d is %+v, the no-prefetch run's %+v", pf.Name(), i, rec.seen[i], want[i])
			}
		}
		t.Logf("%s: %d LLC accesses, %d prefetches issued", pf.Name(), len(want), m.PrefetchesIssued)
	}
}

// Custom prefetcher: shows how to implement the sim.Prefetcher interface and
// race a home-grown design against the built-in baselines on a real
// framework trace. The example builds a PC-localised stride prefetcher — a
// classic design that works on regular streams and collapses on graph
// analytics' irregular traffic, motivating the ML approach.
//
//	go run ./examples/customprefetcher
package main

import (
	"fmt"
	"log"

	"mpgraph"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
)

// strideEntry tracks one PC's last block and stride.
type strideEntry struct {
	last   uint64
	stride int64
	conf   int
}

// PCStride is a per-PC stride prefetcher with 2-bit confidence.
type PCStride struct {
	table  map[uint64]*strideEntry
	degree int
	out    []uint64 // Operate's result, reused call to call
}

// NewPCStride builds the prefetcher.
func NewPCStride(degree int) *PCStride {
	return &PCStride{table: make(map[uint64]*strideEntry), degree: degree}
}

// Name implements sim.Prefetcher.
func (p *PCStride) Name() string { return "pc-stride" }

// Operate implements sim.Prefetcher. Like the built-in prefetchers it returns
// its own buffer: the engine reads it before the next call, and a caller that
// keeps a result any longer must copy the slice.
func (p *PCStride) Operate(acc sim.LLCAccess) []uint64 {
	e, ok := p.table[acc.PC]
	if !ok {
		if len(p.table) > 4096 {
			for k := range p.table {
				delete(p.table, k)
				break
			}
		}
		p.table[acc.PC] = &strideEntry{last: acc.Block}
		return nil
	}
	stride := int64(acc.Block) - int64(e.last)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
	}
	e.last = acc.Block
	if e.conf < 2 {
		return nil
	}
	out := p.out[:0]
	for k := 1; k <= p.degree; k++ {
		t := int64(acc.Block) + e.stride*int64(k)
		if t >= 0 {
			out = append(out, uint64(t))
		}
	}
	p.out = out
	return out
}

func main() {
	opt := mpgraph.DefaultOptions()
	opt.GraphScale = 11
	opt.TraceIterations = 3
	opt.MaxTestAccesses = 100_000
	sys := mpgraph.New(opt)

	for _, wl := range []mpgraph.Workload{
		{Framework: "gpop", App: mpgraph.PR, Dataset: "rmat"},
		{Framework: "powergraph", App: mpgraph.PR, Dataset: "rmat"},
	} {
		fmt.Printf("--- %s ---\n", wl)
		for _, pf := range []mpgraph.Prefetcher{
			NewPCStride(6),
			prefetch.NewBO(prefetch.DefaultBOConfig()),
			prefetch.NewISB(prefetch.DefaultISBConfig()),
		} {
			m, base, err := sys.Simulate(wl, pf)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s IPC %+.2f%%  accuracy %.1f%%  coverage %.1f%% (issued %d)\n",
				pf.Name(), m.IPCImprovement(base)*100, m.Accuracy()*100, m.Coverage()*100, m.PrefetchesIssued)
		}
	}
}

package prefetch

import "mpgraph/internal/sim"

// ISBConfig parameterises the Irregular Stream Buffer.
type ISBConfig struct {
	// MaxPairs bounds the correlation table (FIFO eviction).
	MaxPairs int
	// Degree is the successor-chain walk length.
	Degree int
}

// DefaultISBConfig returns the paper's degree-6 setup with an 8K-pair table
// (≈ the 8 KB budget Section 6.1 quotes).
func DefaultISBConfig() ISBConfig { return ISBConfig{MaxPairs: 8192, Degree: 6} }

// ISB models the Irregular Stream Buffer (Jain & Lin, MICRO 2013): a
// record-and-replay temporal prefetcher that PC-localises the access stream,
// links each block to its observed successor within the same PC stream, and
// replays the successor chain on a hit. As the paper observes, interleaved
// multi-core execution breaks the recorded orders, which is why ISB fares
// poorly on these workloads.
type ISB struct {
	cfg       ISBConfig
	lastByPC  map[uint64]uint64 // PC-localised previous block
	successor map[uint64]uint64 // block -> next block in its PC stream
	fifo      ring[uint64]      // insertion order for bounded eviction
	out       []uint64
}

// NewISB builds the prefetcher.
func NewISB(cfg ISBConfig) *ISB {
	return &ISB{
		cfg:       cfg,
		lastByPC:  make(map[uint64]uint64),
		successor: make(map[uint64]uint64),
		fifo:      newRing[uint64](cfg.MaxPairs),
	}
}

// Name implements sim.Prefetcher.
func (p *ISB) Name() string { return "isb" }

// Operate implements sim.Prefetcher.
func (p *ISB) Operate(acc sim.LLCAccess) []uint64 {
	// Record: link the previous block of this PC stream to the new one.
	if prev, ok := p.lastByPC[acc.PC]; ok && prev != acc.Block {
		if _, exists := p.successor[prev]; !exists {
			if old, full := p.fifo.push(prev); full {
				delete(p.successor, old)
			}
		}
		p.successor[prev] = acc.Block
	}
	p.lastByPC[acc.PC] = acc.Block

	// Replay: walk the successor chain.
	out := p.out[:0]
	cur := acc.Block
	for k := 0; k < p.cfg.Degree; k++ {
		next, ok := p.successor[cur]
		if !ok || next == cur {
			break
		}
		out = append(out, next)
		cur = next
	}
	p.out = out
	return out
}

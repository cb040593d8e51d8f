package prefetch

import (
	"mpgraph/internal/ring"
	"mpgraph/internal/sim"
)

// DominoConfig parameterises the Domino temporal prefetcher.
type DominoConfig struct {
	// MaxPairs bounds the history table (FIFO eviction).
	MaxPairs int
	// Degree is the replay-chain length.
	Degree int
}

// DefaultDominoConfig mirrors the HPCA 2018 proposal at degree 6.
func DefaultDominoConfig() DominoConfig { return DominoConfig{MaxPairs: 16384, Degree: 6} }

// Domino models the Domino temporal prefetcher (Bakhshalipour et al., HPCA
// 2018): where ISB indexes its history with one address, Domino indexes
// with the pair of the last two misses, which disambiguates interleaved
// streams better — at the cost of needing two warm accesses after every
// divergence. It is the natural stronger rule-based temporal baseline next
// to ISB.
type Domino struct {
	cfg DominoConfig
	// successor maps (prev2, prev1) to the next block; a single-address
	// fallback map handles cold pairs.
	successor map[[2]uint64]uint64
	fallback  map[uint64]uint64
	fifo      ring.Ring[[2]uint64]
	out       []uint64
	prev1     uint64
	prev2     uint64
	warm      int
}

// NewDomino builds the prefetcher.
func NewDomino(cfg DominoConfig) *Domino {
	return &Domino{
		cfg:       cfg,
		successor: make(map[[2]uint64]uint64),
		fallback:  make(map[uint64]uint64),
		fifo:      ring.New[[2]uint64](cfg.MaxPairs),
	}
}

// Name implements sim.Prefetcher.
func (p *Domino) Name() string { return "domino" }

// Operate implements sim.Prefetcher.
func (p *Domino) Operate(acc sim.LLCAccess) []uint64 {
	// Record.
	if p.warm >= 2 {
		key := [2]uint64{p.prev2, p.prev1}
		if _, exists := p.successor[key]; !exists {
			if old, full := p.fifo.Push(key); full {
				delete(p.successor, old)
			}
		}
		p.successor[key] = acc.Block
		p.fallback[p.prev1] = acc.Block
	} else if p.warm == 1 {
		p.fallback[p.prev1] = acc.Block
	}
	p.prev2, p.prev1 = p.prev1, acc.Block
	if p.warm < 2 {
		p.warm++
	}

	// Replay: walk the two-index chain from the current context.
	out := p.out[:0]
	a, b := p.prev2, p.prev1
	for i := 0; i < p.cfg.Degree; i++ {
		next, ok := p.successor[[2]uint64{a, b}]
		if !ok {
			next, ok = p.fallback[b]
			if !ok {
				break
			}
		}
		if next == b {
			break
		}
		out = append(out, next)
		a, b = b, next
	}
	p.out = out
	return out
}

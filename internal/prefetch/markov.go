package prefetch

import (
	"mpgraph/internal/ring"
	"slices"

	"mpgraph/internal/sim"
)

// MarkovConfig parameterises the Markov prefetcher.
type MarkovConfig struct {
	// Successors per block (the original keeps up to 4).
	Successors int
	// TableSize bounds the number of tracked blocks (FIFO eviction).
	TableSize int
	// Degree is the total prefetches per access (top successors of the
	// current block, then of the most likely successor, breadth-first).
	Degree int
}

// DefaultMarkovConfig mirrors the ISCA 1997 proposal at degree 6.
func DefaultMarkovConfig() MarkovConfig {
	return MarkovConfig{Successors: 4, TableSize: 16384, Degree: 6}
}

// Markov models the classic Markov prefetcher (Joseph & Grunwald, ISCA
// 1997): a first-order transition table keeping the most frequent
// successors of each miss address, replayed breadth-first on each access.
type Markov struct {
	cfg   MarkovConfig
	table map[uint64][]markovEdge
	fifo  ring.Ring[uint64]
	prev  uint64
	warm  bool
	// Operate's result and its breadth-first queue, reused call to call. Both
	// hold at most Degree+1 blocks, so membership is a linear scan.
	out, frontier []uint64
}

type markovEdge struct {
	next  uint64
	count int
}

// NewMarkov builds the prefetcher.
func NewMarkov(cfg MarkovConfig) *Markov {
	return &Markov{cfg: cfg, table: make(map[uint64][]markovEdge), fifo: ring.New[uint64](cfg.TableSize)}
}

// Name implements sim.Prefetcher.
func (p *Markov) Name() string { return "markov" }

// Operate implements sim.Prefetcher.
func (p *Markov) Operate(acc sim.LLCAccess) []uint64 {
	if p.warm && p.prev != acc.Block {
		p.record(p.prev, acc.Block)
	}
	p.prev = acc.Block
	p.warm = true

	// Breadth-first replay: successors of the current block, then the
	// successors of the best successor, until the degree budget fills.
	// A block has been seen once it is the accessed block or in out; frontier
	// keeps every block ever enqueued, read from head on.
	out := p.out[:0]
	frontier := append(p.frontier[:0], acc.Block)
	for head := 0; head < len(frontier) && len(out) < p.cfg.Degree; head++ {
		edges := p.table[frontier[head]]
		for _, e := range edges {
			if e.next == acc.Block || slices.Contains(out, e.next) {
				continue
			}
			out = append(out, e.next)
			if len(out) >= p.cfg.Degree {
				break
			}
		}
		// Expand only through unvisited best successors so cyclic chains
		// terminate.
		if len(edges) > 0 && !slices.Contains(frontier, edges[0].next) {
			frontier = append(frontier, edges[0].next)
		}
	}
	p.out, p.frontier = out, frontier
	return out
}

// record updates the successor list of prev, keeping it sorted by count. A
// new block's list has room for every successor from the start, and takes
// over the list of the block it evicts.
func (p *Markov) record(prev, next uint64) {
	edges, exists := p.table[prev]
	if !exists {
		if old, full := p.fifo.Push(prev); full {
			edges = p.table[old][:0]
			delete(p.table, old)
		} else {
			edges = make([]markovEdge, 0, p.cfg.Successors)
		}
	}
	for i := range edges {
		if edges[i].next == next {
			edges[i].count++
			// Bubble toward the front to keep descending counts.
			for i > 0 && edges[i-1].count < edges[i].count {
				edges[i-1], edges[i] = edges[i], edges[i-1]
				i--
			}
			p.table[prev] = edges
			return
		}
	}
	if len(edges) < p.cfg.Successors {
		edges = append(edges, markovEdge{next: next, count: 1})
	} else {
		// Replace the weakest successor.
		edges[len(edges)-1] = markovEdge{next: next, count: 1}
	}
	p.table[prev] = edges
}

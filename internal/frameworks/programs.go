package frameworks

import (
	"math"

	"mpgraph/internal/graph"
)

// vertexProgram captures the per-application semantics shared by all three
// execution models. Frameworks drive it: they decide *how* to iterate
// (partition-centric, edge-centric, GAS) and therefore which memory accesses
// occur; the program decides *what* values flow.
type vertexProgram interface {
	// active reports whether v has an update to scatter this iteration.
	active(v uint32) bool
	// anyActive reports whether any vertex is active (frontier non-empty).
	anyActive() bool
	// propagate returns the value v sends along an edge of weight w.
	propagate(v uint32, w float32) float64
	// accumulate folds an incoming value into u's accumulator.
	accumulate(u uint32, val float64)
	// apply commits u's accumulator and reports whether u changed (and thus
	// becomes active next iteration).
	apply(u uint32) bool
	// endIteration swaps frontiers; it returns true when the algorithm has
	// converged and iteration may stop.
	endIteration() bool
	// output returns the per-vertex result vector.
	output() []float64
}

// newProgram builds app's vertex program on g. TC, which only PowerGraph
// runs, has none: its count is no per-vertex value flow.
func newProgram(app App, g *graph.Graph) vertexProgram {
	switch app {
	case PR:
		return newPageRank(g)
	case TC:
		return nil
	}
	return newMinPlus(app, g)
}

// frontier is the min-plus program's active set.
type frontier struct {
	cur, next []bool
	curCount  int
	nextCount int
}

func (f *frontier) init(n int, allActive bool) {
	f.cur = make([]bool, n)
	f.next = make([]bool, n)
	f.curCount = 0
	if allActive {
		for i := range f.cur {
			f.cur[i] = true
		}
		f.curCount = n
	}
}

func (f *frontier) activate(v uint32) {
	if !f.next[v] {
		f.next[v] = true
		f.nextCount++
	}
}

func (f *frontier) swap() {
	f.cur, f.next = f.next, f.cur
	f.curCount = f.nextCount
	f.nextCount = 0
	for i := range f.next {
		f.next[i] = false
	}
}

// pagerankProgram implements synchronous PageRank with damping 0.85. Every
// vertex is active every iteration; convergence is total L1 rank movement.
type pagerankProgram struct {
	rank    []float64
	acc     []float64
	outDeg  []float64
	delta   float64
	epsilon float64
}

func newPageRank(g *graph.Graph) *pagerankProgram {
	n := g.NumVertices
	p := &pagerankProgram{
		rank:    make([]float64, n),
		acc:     make([]float64, n),
		outDeg:  make([]float64, n),
		epsilon: 1e-7,
	}
	for v := 0; v < n; v++ {
		p.rank[v] = 1.0 / float64(n)
		d := g.OutDegree(uint32(v))
		if d == 0 {
			d = 1 // dangling vertices self-propagate
		}
		p.outDeg[v] = float64(d)
	}
	return p
}

func (p *pagerankProgram) active(uint32) bool { return true }
func (p *pagerankProgram) anyActive() bool    { return true }

func (p *pagerankProgram) propagate(v uint32, _ float32) float64 {
	return p.rank[v] / p.outDeg[v]
}

func (p *pagerankProgram) accumulate(u uint32, val float64) { p.acc[u] += val }

func (p *pagerankProgram) apply(u uint32) bool {
	n := float64(len(p.rank))
	nr := 0.15/n + 0.85*p.acc[u]
	p.delta += math.Abs(nr - p.rank[u])
	changed := math.Abs(nr-p.rank[u]) > p.epsilon
	p.rank[u] = nr
	p.acc[u] = 0
	return changed
}

func (p *pagerankProgram) endIteration() bool {
	d := p.delta
	p.delta = 0
	return d < p.epsilon*float64(len(p.rank))
}

func (p *pagerankProgram) output() []float64 { return p.rank }

// minPlusProgram is the frontier program behind CC, BFS and SSSP: an active
// vertex sends its value plus the edge's cost, a vertex keeps the least
// value it is offered, and a vertex whose value dropped is active next
// iteration.
//
//   - CC is min-label propagation (directed edges treated as undirected by
//     frameworks that materialise both adjacencies; label flows follow the
//     framework's traversal direction): every vertex starts at its own id,
//     all active, and an edge costs 0.
//   - BFS is hop distance from a deterministic high-degree source: the
//     source starts at 0, every other vertex at +Inf, and an edge costs 1.
//     Every frontier vertex of iteration t has level t, so keeping the least
//     offer is BFS's first-reach rule. A vertex never reached reports -1.
//   - SSSP is Bellman-Ford from the same source, an edge costing its weight.
type minPlusProgram struct {
	val []float64
	acc []float64
	fr  frontier
	// cost is what an edge costs unless weighted, when it costs its weight.
	cost     float64
	weighted bool
	// unreached is what output reports for a value still at +Inf.
	unreached float64
}

func newMinPlus(app App, g *graph.Graph) *minPlusProgram {
	n := g.NumVertices
	p := &minPlusProgram{
		val:       make([]float64, n),
		acc:       make([]float64, n),
		weighted:  app == SSSP,
		unreached: math.Inf(1),
	}
	for v := 0; v < n; v++ {
		p.val[v] = math.Inf(1)
		p.acc[v] = math.Inf(1)
	}
	if app == CC {
		for v := range p.val {
			p.val[v] = float64(v)
		}
		p.fr.init(n, true)
		return p
	}
	if app == BFS {
		p.cost, p.unreached = 1, -1
	}
	src := pickSource(g)
	p.val[src] = 0
	p.fr.init(n, false)
	p.fr.cur[src] = true
	p.fr.curCount = 1
	return p
}

// pickSource returns the highest out-degree vertex, a deterministic choice
// that reaches a large component.
func pickSource(g *graph.Graph) uint32 {
	best, bestDeg := uint32(0), -1
	for v := 0; v < g.NumVertices; v++ {
		if d := g.OutDegree(uint32(v)); d > bestDeg {
			best, bestDeg = uint32(v), d
		}
	}
	return best
}

func (p *minPlusProgram) active(v uint32) bool { return p.fr.cur[v] }
func (p *minPlusProgram) anyActive() bool      { return p.fr.curCount > 0 }

func (p *minPlusProgram) propagate(v uint32, w float32) float64 {
	if p.weighted {
		return p.val[v] + float64(w)
	}
	return p.val[v] + p.cost
}

func (p *minPlusProgram) accumulate(u uint32, val float64) {
	if val < p.acc[u] {
		p.acc[u] = val
	}
}

func (p *minPlusProgram) apply(u uint32) bool {
	changed := false
	if p.acc[u] < p.val[u] {
		p.val[u] = p.acc[u]
		changed = true
		p.fr.activate(u)
	}
	p.acc[u] = math.Inf(1)
	return changed
}

func (p *minPlusProgram) endIteration() bool {
	p.fr.swap()
	return p.fr.curCount == 0
}

func (p *minPlusProgram) output() []float64 {
	for v, x := range p.val {
		if math.IsInf(x, 1) {
			p.val[v] = p.unreached
		}
	}
	return p.val
}

package frameworks

import (
	"slices"

	"mpgraph/internal/graph"
	"mpgraph/internal/trace"
)

// powergraph models the PowerGraph framework (Gonzalez et al., OSDI 2012):
// the Gather-Apply-Scatter (GAS) abstraction with three barrier-synchronised
// phases per super-step. Gather pulls values from in-neighbours of signalled
// vertices (random reads across the whole vertex array via the in-CSR),
// Apply commits accumulators sequentially, Scatter walks out-edges of changed
// vertices and signals their destinations (random bitmap writes).
//
// Triangle counting (TC) — PowerGraph-only in the paper's benchmark set — is
// implemented as sorted-adjacency intersection inside Gather.
type powergraph struct{}

// NewPowerGraph returns the PowerGraph execution model.
func NewPowerGraph() Framework { return &powergraph{} }

func (f *powergraph) Name() string   { return "powergraph" }
func (f *powergraph) NumPhases() int { return 3 }
func (f *powergraph) Apps() []App    { return []App{CC, PR, SSSP, TC} }

// PowerGraph's code sites: the GAS phases', then triangle counting's.
const (
	pgGatherReadOffset site = iota
	pgGatherReadEdge
	pgGatherCheckActive
	pgGatherReadNbr
	pgGatherWriteAcc
	pgApplyReadAcc
	pgApplyWriteVertex
	pgScatterReadOffset
	pgScatterReadEdge
	pgScatterSignal
	pgTCReadOffsetV
	pgTCReadEdge
	pgTCReadOffsetU
	pgTCIntersectV
	pgTCIntersectU
	pgTCReadAcc
	pgTCWriteCount
	pgTCScanCount
)

func (f *powergraph) Run(g *graph.Graph, app App, opt Options) (*trace.Trace, *Result, error) {
	r, err := start(f, g, app, opt)
	if err != nil {
		return nil, nil, err
	}
	if app == TC {
		return runTriangleCount(g, r)
	}

	n := g.NumVertices
	as := trace.NewAddressSpace(0x3000_0000)
	vvals := as.Alloc("pg.vvals", uint64(n)*8)
	inOffsets := as.Alloc("pg.inoffsets", uint64(n+1)*8)
	inEdges := as.Alloc("pg.inedges", uint64(g.NumEdges())*8)
	outOffsets := as.Alloc("pg.outoffsets", uint64(n+1)*8)
	outEdges := as.Alloc("pg.outedges", uint64(g.NumEdges())*8)
	acc := as.Alloc("pg.acc", uint64(n)*8)
	activeReg := as.Alloc("pg.active", uint64(n/8+1))

	// signalled[v]: v runs Gather+Apply this super-step. Initially the
	// out-neighbourhood of the initially-active set (those vertices'
	// initial values are the first information to propagate).
	signalled := make([]bool, n)
	for v := uint32(0); int(v) < n; v++ {
		if r.prog.active(v) {
			for _, u := range g.OutNeighbors(v) {
				signalled[u] = true
			}
		}
	}
	nextSignalled := make([]bool, n)
	changed := make([]uint32, 0, n/8)

	// Gather pulls from active in-neighbours.
	gather := func() {
		for v := uint32(0); int(v) < n; v++ {
			if !signalled[v] {
				continue
			}
			core := ownerCore(int(v), r.cores)
			r.read(core, inOffsets.Elem(int(v), 8), pgGatherReadOffset)
			ws := g.InWeightsOf(v)
			edgeBase := int(g.InIndex[v])
			for j, u := range g.InNeighbors(v) {
				r.read(core, inEdges.Elem(edgeBase+j, 8), pgGatherReadEdge)
				if j%4 == 0 {
					r.read(core, activeReg.Elem(int(u)/8, 1), pgGatherCheckActive)
				}
				if !r.prog.active(u) {
					continue
				}
				// Random read across the whole vertex array — the wide
				// page-jump pattern of Fig. 3.
				r.read(core, vvals.Elem(int(u), 8), pgGatherReadNbr)
				r.prog.accumulate(v, r.prog.propagate(u, ws[j]))
			}
			r.write(core, acc.Elem(int(v), 8), pgGatherWriteAcc)
		}
	}
	apply := func() {
		changed = changed[:0]
		for v := uint32(0); int(v) < n; v++ {
			if !signalled[v] {
				continue
			}
			core := ownerCore(int(v), r.cores)
			r.read(core, acc.Elem(int(v), 8), pgApplyReadAcc)
			if r.prog.apply(v) {
				r.write(core, vvals.Elem(int(v), 8), pgApplyWriteVertex)
				changed = append(changed, v)
			}
		}
	}
	// Scatter signals the out-neighbours of changed vertices.
	scatter := func() {
		clear(nextSignalled)
		for _, v := range changed {
			core := ownerCore(int(v), r.cores)
			r.read(core, outOffsets.Elem(int(v), 8), pgScatterReadOffset)
			edgeBase := int(g.OutIndex[v])
			for j, u := range g.OutNeighbors(v) {
				r.read(core, outEdges.Elem(edgeBase+j, 8), pgScatterReadEdge)
				r.write(core, activeReg.Elem(int(u)/8, 1), pgScatterSignal)
				nextSignalled[u] = true
			}
		}
		signalled, nextSignalled = nextSignalled, signalled
	}
	anySignalled := func() bool { return slices.Contains(signalled, true) }
	return r.drive(anySignalled, gather, apply, scatter)
}

// runTriangleCount counts directed triangles of g's out-edges: the distinct
// vertex triples v < u < w with the out-edges v→u, v→w and u→w, duplicate
// edges counted once. That is not the triangle count of the undirected
// graph, which also counts triangles whose edges point the other way. It
// intersects sorted adjacency lists, repeated each iteration (analytics
// reruns), emitting the GAS-shaped access pattern: Gather intersects
// adjacency lists (random cross-list reads), Apply writes per-vertex counts,
// Scatter is a no-op signalling pass over counted vertices. TC has no vertex
// program to converge, so it runs every iteration in a loop of its own.
func runTriangleCount(g *graph.Graph, r *run) (*trace.Trace, *Result, error) {
	n := g.NumVertices
	as := trace.NewAddressSpace(0x3000_0000)
	counts := as.Alloc("pg.counts", uint64(n)*8)
	outOffsets := as.Alloc("pg.outoffsets", uint64(n+1)*8)
	outEdges := as.Alloc("pg.outedges", uint64(g.NumEdges())*8)
	acc := as.Alloc("pg.acc", uint64(n)*8)

	var total float64
	// Gather: adjacency intersections.
	gather := func() {
		total = 0
		for v := uint32(0); int(v) < n; v++ {
			core := ownerCore(int(v), r.cores)
			nv := g.OutNeighbors(v)
			if len(nv) == 0 {
				continue
			}
			r.read(core, outOffsets.Elem(int(v), 8), pgTCReadOffsetV)
			vBase := int(g.OutIndex[v])
			for j, u := range nv {
				if u <= v || (j > 0 && nv[j-1] == u) {
					continue // skip back-edges and duplicate edges
				}
				r.read(core, outEdges.Elem(vBase+j, 8), pgTCReadEdge)
				r.read(core, outOffsets.Elem(int(u), 8), pgTCReadOffsetU)
				nu := g.OutNeighbors(u)
				uBase := int(g.OutIndex[u])
				// Sorted merge intersection over deduplicated runs; count
				// common neighbours w > u so each triangle counts once.
				a, b := 0, 0
				for a < len(nv) && b < len(nu) {
					if a > 0 && nv[a] == nv[a-1] {
						a++
						continue
					}
					if b > 0 && nu[b] == nu[b-1] {
						b++
						continue
					}
					// Model the streaming reads of both lists; sample every
					// other step to keep trace volume proportional.
					if (a+b)%2 == 0 {
						r.read(core, outEdges.Elem(vBase+a, 8), pgTCIntersectV)
						r.read(core, outEdges.Elem(uBase+b, 8), pgTCIntersectU)
					}
					switch {
					case nv[a] < nu[b]:
						a++
					case nv[a] > nu[b]:
						b++
					default:
						if nv[a] > u {
							total++
						}
						a++
						b++
					}
				}
			}
		}
	}
	// Apply commits the counts.
	apply := func() {
		for v := 0; v < n; v++ {
			core := ownerCore(v, r.cores)
			r.read(core, acc.Elem(v, 8), pgTCReadAcc)
			r.write(core, counts.Elem(v, 8), pgTCWriteCount)
		}
	}
	// Scatter is a signalling sweep (no new activations for TC).
	scan := func() {
		for v := 0; v < n; v += 8 {
			core := ownerCore(v, r.cores)
			r.read(core, counts.Elem(v, 8), pgTCScanCount)
		}
	}
	for iter := 0; iter < r.opt.MaxIterations; iter++ {
		r.superStep(gather, apply, scan)
		r.res.Iterations++
	}
	r.res.Converged = true
	r.res.Values = []float64{total}
	return r.out, r.res, nil
}

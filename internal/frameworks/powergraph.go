package frameworks

import (
	"fmt"

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

func (f *powergraph) Name() string         { return "powergraph" }
func (f *powergraph) NumPhases() int       { return 3 }
func (f *powergraph) PhaseNames() []string { return []string{"gather", "apply", "scatter"} }
func (f *powergraph) Apps() []App          { return []App{CC, PR, SSSP, TC} }

func (f *powergraph) Run(g *graph.Graph, app App, opt Options) (*trace.Trace, *Result, error) {
	opt = opt.withDefaults()
	if !supportsApp(f, app) {
		return nil, nil, fmt.Errorf("frameworks: powergraph does not implement %q", app)
	}
	if app == TC {
		return f.runTriangleCount(g, opt)
	}
	prog, err := newProgram(app, g)
	if err != nil {
		return nil, nil, err
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

	em := newEmitter(opt, f.NumPhases(), app, f.Name())

	// signalled[v]: v runs Gather+Apply this super-step. Initially the
	// out-neighbourhood of the initially-active set (those vertices'
	// initial values are the first information to propagate).
	signalled := make([]bool, n)
	for v := uint32(0); int(v) < n; v++ {
		if prog.active(v) {
			for _, u := range g.OutNeighbors(v) {
				signalled[u] = true
			}
		}
	}
	nextSignalled := make([]bool, n)

	res := &Result{App: app, Framework: f.Name()}
	for iter := 0; iter < opt.MaxIterations; iter++ {
		anySignalled := false
		for _, s := range signalled {
			if s {
				anySignalled = true
				break
			}
		}
		if !anySignalled {
			break
		}
		em.beginIteration()

		// ---- Gather phase: pull from active in-neighbours ----
		em.setPhase(0)
		for v := uint32(0); int(v) < n; v++ {
			if !signalled[v] {
				continue
			}
			core := ownerCore(int(v), opt.Cores)
			em.read(core, inOffsets.Elem(int(v), 8), "pg.gather.readOffset")
			ws := g.InWeightsOf(v)
			edgeBase := int(g.InIndex[v])
			for j, u := range g.InNeighbors(v) {
				em.read(core, inEdges.Elem(edgeBase+j, 8), "pg.gather.readEdge")
				if j%4 == 0 {
					em.read(core, activeReg.Elem(int(u)/8, 1), "pg.gather.checkActive")
				}
				if !prog.active(u) {
					continue
				}
				// Random read across the whole vertex array — the wide
				// page-jump pattern of Fig. 3.
				em.read(core, vvals.Elem(int(u), 8), "pg.gather.readNbr")
				prog.accumulate(v, prog.propagate(u, ws[j]))
			}
			em.write(core, acc.Elem(int(v), 8), "pg.gather.writeAcc")
		}
		em.barrier()

		// ---- Apply phase ----
		em.setPhase(1)
		changed := make([]uint32, 0, n/8)
		for v := uint32(0); int(v) < n; v++ {
			if !signalled[v] {
				continue
			}
			core := ownerCore(int(v), opt.Cores)
			em.read(core, acc.Elem(int(v), 8), "pg.apply.readAcc")
			if prog.apply(v) {
				em.write(core, vvals.Elem(int(v), 8), "pg.apply.writeVertex")
				changed = append(changed, v)
			}
		}
		em.barrier()

		// ---- Scatter phase: signal out-neighbours of changed vertices ----
		em.setPhase(2)
		for i := range nextSignalled {
			nextSignalled[i] = false
		}
		for _, v := range changed {
			core := ownerCore(int(v), opt.Cores)
			em.read(core, outOffsets.Elem(int(v), 8), "pg.scatter.readOffset")
			edgeBase := int(g.OutIndex[v])
			for j, u := range g.OutNeighbors(v) {
				em.read(core, outEdges.Elem(edgeBase+j, 8), "pg.scatter.readEdge")
				em.write(core, activeReg.Elem(int(u)/8, 1), "pg.scatter.signal")
				nextSignalled[u] = true
			}
		}
		em.barrier()

		signalled, nextSignalled = nextSignalled, signalled
		res.Iterations++
		if prog.endIteration() {
			res.Converged = true
			break
		}
	}
	res.Values = prog.output()
	return em.finish(), res, nil
}

// runTriangleCount counts triangles in the undirected view of g's out-edges
// via sorted-adjacency intersection, repeated each iteration (analytics
// reruns), emitting the GAS-shaped access pattern: Gather intersects
// adjacency lists (random cross-list reads), Apply writes per-vertex counts,
// Scatter is a no-op signalling pass over counted vertices.
func (f *powergraph) runTriangleCount(g *graph.Graph, opt Options) (*trace.Trace, *Result, error) {
	n := g.NumVertices
	as := trace.NewAddressSpace(0x3000_0000)
	counts := as.Alloc("pg.counts", uint64(n)*8)
	outOffsets := as.Alloc("pg.outoffsets", uint64(n+1)*8)
	outEdges := as.Alloc("pg.outedges", uint64(g.NumEdges())*8)
	acc := as.Alloc("pg.acc", uint64(n)*8)

	em := newEmitter(opt, f.NumPhases(), TC, f.Name())
	res := &Result{App: TC, Framework: f.Name()}
	var total float64
	perVertex := make([]float64, n)

	for iter := 0; iter < opt.MaxIterations; iter++ {
		em.beginIteration()
		total = 0
		for i := range perVertex {
			perVertex[i] = 0
		}

		// ---- Gather: adjacency intersections ----
		em.setPhase(0)
		for v := uint32(0); int(v) < n; v++ {
			core := ownerCore(int(v), opt.Cores)
			nv := g.OutNeighbors(v)
			if len(nv) == 0 {
				continue
			}
			em.read(core, outOffsets.Elem(int(v), 8), "pg.tc.readOffsetV")
			vBase := int(g.OutIndex[v])
			for j, u := range nv {
				if u <= v || (j > 0 && nv[j-1] == u) {
					continue // skip back-edges and duplicate edges
				}
				em.read(core, outEdges.Elem(vBase+j, 8), "pg.tc.readEdge")
				em.read(core, outOffsets.Elem(int(u), 8), "pg.tc.readOffsetU")
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
						em.read(core, outEdges.Elem(vBase+a, 8), "pg.tc.intersectV")
						em.read(core, outEdges.Elem(uBase+b, 8), "pg.tc.intersectU")
					}
					switch {
					case nv[a] < nu[b]:
						a++
					case nv[a] > nu[b]:
						b++
					default:
						if nv[a] > u {
							perVertex[v]++
							total++
						}
						a++
						b++
					}
				}
			}
		}
		em.barrier()

		// ---- Apply: commit counts ----
		em.setPhase(1)
		for v := 0; v < n; v++ {
			core := ownerCore(v, opt.Cores)
			em.read(core, acc.Elem(v, 8), "pg.tc.readAcc")
			em.write(core, counts.Elem(v, 8), "pg.tc.writeCount")
		}
		em.barrier()

		// ---- Scatter: signalling sweep (no new activations for TC) ----
		em.setPhase(2)
		for v := 0; v < n; v += 8 {
			core := ownerCore(v, opt.Cores)
			em.read(core, counts.Elem(v, 8), "pg.tc.scanCount")
		}
		em.barrier()
		res.Iterations++
	}
	res.Converged = true
	res.Values = []float64{total}
	return em.finish(), res, nil
}

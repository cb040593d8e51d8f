package frameworks

import (
	"fmt"
	"math/rand"

	"mpgraph/internal/graph"
	"mpgraph/internal/trace"
)

// xstream models the X-Stream framework (Roy et al., SOSP 2013):
// edge-centric Scatter-Gather over streaming partitions. Scatter streams the
// entire unordered edge list sequentially and, for each edge with an active
// source, reads the source vertex value (a random access across the whole
// vertex array — X-Stream's signature pattern) and appends an update to the
// destination's streaming partition. Gather streams each partition's updates
// and writes vertex state confined to that partition.
//
// Characteristic access pattern: long perfectly-sequential edge/update
// streams punctuated by uniformly-random vertex reads — very different from
// GPOP's partition-local traffic, which is what makes per-framework phase
// models worthwhile.
type xstream struct{}

// NewXStream returns the X-Stream execution model.
func NewXStream() Framework { return &xstream{} }

func (f *xstream) Name() string         { return "xstream" }
func (f *xstream) NumPhases() int       { return 2 }
func (f *xstream) PhaseNames() []string { return []string{"scatter", "gather"} }
func (f *xstream) Apps() []App          { return []App{BFS, CC, PR, SSSP} }

type xsUpdate struct {
	dst uint32
	val float64
}

func (f *xstream) Run(g *graph.Graph, app App, opt Options) (*trace.Trace, *Result, error) {
	opt = opt.withDefaults()
	if !supportsApp(f, app) {
		return nil, nil, fmt.Errorf("frameworks: xstream does not implement %q", app)
	}
	prog, err := newProgram(app, g)
	if err != nil {
		return nil, nil, err
	}

	n := g.NumVertices
	q := opt.PartitionSize
	numParts := (n + q - 1) / q
	partOf := func(v uint32) int { return int(v) / q }

	// X-Stream stores edges in input order; flatten the CSR and shuffle
	// deterministically so source reads are scattered like a raw edge list.
	type xsEdge struct {
		src, dst uint32
		w        float32
	}
	edgeList := make([]xsEdge, 0, g.NumEdges())
	for v := uint32(0); int(v) < n; v++ {
		ws := g.OutWeightsOf(v)
		for j, u := range g.OutNeighbors(v) {
			edgeList = append(edgeList, xsEdge{src: v, dst: u, w: ws[j]})
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed + 0x517))
	rng.Shuffle(len(edgeList), func(i, j int) { edgeList[i], edgeList[j] = edgeList[j], edgeList[i] })

	as := trace.NewAddressSpace(0x2000_0000)
	vvals := as.Alloc("xs.vvals", uint64(n)*8)
	edges := as.Alloc("xs.edges", uint64(len(edgeList))*16)
	acc := as.Alloc("xs.acc", uint64(n)*8)
	updCap := 2*g.NumEdges()/numParts + 64
	updates := as.Alloc("xs.updates", uint64(numParts)*uint64(updCap)*16)
	updAddr := func(p, k int) uint64 {
		return updates.Base + uint64(p)*uint64(updCap)*16 + uint64(k%updCap)*16
	}

	// Edge ranges are striped across cores: each core streams a contiguous
	// chunk of the edge list.
	chunk := (len(edgeList) + opt.Cores - 1) / opt.Cores

	em := newEmitter(opt, f.NumPhases(), app, f.Name())
	updLists := make([][]xsUpdate, numParts)
	touched := make([]bool, n)

	res := &Result{App: app, Framework: f.Name()}
	for iter := 0; iter < opt.MaxIterations && prog.anyActive(); iter++ {
		em.beginIteration()

		// ---- Scatter phase: stream all edges ----
		em.setPhase(0)
		for c := 0; c < opt.Cores; c++ {
			lo := c * chunk
			hi := min(lo+chunk, len(edgeList))
			for i := lo; i < hi; i++ {
				e := edgeList[i]
				em.read(c, edges.Elem(i, 16), "xs.scatter.readEdge")
				if !prog.active(e.src) {
					continue
				}
				// Random read across the whole vertex array.
				em.read(c, vvals.Elem(int(e.src), 8), "xs.scatter.readSrc")
				val := prog.propagate(e.src, e.w)
				dp := partOf(e.dst)
				em.write(c, updAddr(dp, len(updLists[dp])), "xs.scatter.writeUpdate")
				updLists[dp] = append(updLists[dp], xsUpdate{dst: e.dst, val: val})
			}
		}
		em.barrier()

		// ---- Gather phase: stream each partition's updates ----
		em.setPhase(1)
		for p := 0; p < numParts; p++ {
			core := ownerCore(p, opt.Cores)
			for k, upd := range updLists[p] {
				em.read(core, updAddr(p, k), "xs.gather.readUpdate")
				prog.accumulate(upd.dst, upd.val)
				em.write(core, acc.Elem(int(upd.dst), 8), "xs.gather.accumulate")
				touched[upd.dst] = true
			}
			lo := p * q
			hi := min((p+1)*q, n)
			for v := lo; v < hi; v++ {
				if !touched[v] {
					continue
				}
				touched[v] = false
				em.read(core, acc.Elem(v, 8), "xs.gather.readAcc")
				if prog.apply(uint32(v)) {
					em.write(core, vvals.Elem(v, 8), "xs.gather.writeVertex")
				}
			}
			updLists[p] = updLists[p][:0]
		}
		em.barrier()

		res.Iterations++
		if prog.endIteration() {
			res.Converged = true
			break
		}
	}
	res.Values = prog.output()
	return em.finish(), res, nil
}

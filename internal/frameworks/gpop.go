package frameworks

import (
	"fmt"

	"mpgraph/internal/graph"
	"mpgraph/internal/trace"
)

// gpop models the GPOP framework (Lakhotia et al., TOPC 2020):
// partition-centric Scatter-Gather with two barrier-synchronised phases.
// Vertices are divided into cache-sized partitions; Scatter streams a
// partition's vertices and out-edges and appends (dst,val) updates into
// per-destination-partition bins; Gather streams each partition's bin and
// applies updates to the partition's vertex values, which fit in cache.
//
// Characteristic access pattern: Scatter issues sequential vertex/edge/bin
// streams that hop between bin regions (inter-page jumps across partitions);
// Gather issues a sequential bin stream plus random-within-partition
// accumulator traffic.
type gpop struct{}

// NewGPOP returns the GPOP execution model.
func NewGPOP() Framework { return &gpop{} }

func (f *gpop) Name() string         { return "gpop" }
func (f *gpop) NumPhases() int       { return 2 }
func (f *gpop) PhaseNames() []string { return []string{"scatter", "gather"} }
func (f *gpop) Apps() []App          { return []App{BFS, CC, PR, SSSP} }

type gpopUpdate struct {
	dst uint32
	val float64
}

func (f *gpop) Run(g *graph.Graph, app App, opt Options) (*trace.Trace, *Result, error) {
	opt = opt.withDefaults()
	if !supportsApp(f, app) {
		return nil, nil, fmt.Errorf("frameworks: gpop does not implement %q", app)
	}
	prog, err := newProgram(app, g)
	if err != nil {
		return nil, nil, err
	}

	n := g.NumVertices
	q := opt.PartitionSize
	numParts := (n + q - 1) / q
	partOf := func(v uint32) int { return int(v) / q }

	as := trace.NewAddressSpace(0x1000_0000)
	vvals := as.Alloc("gpop.vvals", uint64(n)*8)
	offsets := as.Alloc("gpop.offsets", uint64(n+1)*8)
	edges := as.Alloc("gpop.edges", uint64(g.NumEdges())*8)
	acc := as.Alloc("gpop.acc", uint64(n)*8)
	frontierReg := as.Alloc("gpop.frontier", uint64(n/8+1))
	// Bins: one segment per destination partition. Capacity is generous;
	// addresses wrap within a segment on overflow (the Go-side lists keep
	// exact semantics, only the modelled addresses wrap).
	binCap := 2*g.NumEdges()/numParts + 64
	bins := as.Alloc("gpop.bins", uint64(numParts)*uint64(binCap)*16)
	binAddr := func(p, k int) uint64 {
		return bins.Base + uint64(p)*uint64(binCap)*16 + uint64(k%binCap)*16
	}

	em := newEmitter(opt, f.NumPhases(), app, f.Name())
	binLists := make([][]gpopUpdate, numParts)
	touched := make([]bool, n)

	res := &Result{App: app, Framework: f.Name()}
	for iter := 0; iter < opt.MaxIterations && prog.anyActive(); iter++ {
		em.beginIteration()

		// ---- Scatter phase ----
		em.setPhase(0)
		for p := 0; p < numParts; p++ {
			core := ownerCore(p, opt.Cores)
			lo := uint32(p * q)
			hi := uint32(min((p+1)*q, n))
			for v := lo; v < hi; v++ {
				if v%16 == 0 {
					em.read(core, frontierReg.Elem(int(v)/8, 1), "gpop.scatter.readFrontier")
				}
				if !prog.active(v) {
					continue
				}
				em.read(core, vvals.Elem(int(v), 8), "gpop.scatter.readVertex")
				em.read(core, offsets.Elem(int(v), 8), "gpop.scatter.readOffset")
				nbrs := g.OutNeighbors(v)
				ws := g.OutWeightsOf(v)
				edgeBase := int(g.OutIndex[v])
				for j, u := range nbrs {
					em.read(core, edges.Elem(edgeBase+j, 8), "gpop.scatter.readEdge")
					val := prog.propagate(v, ws[j])
					dp := partOf(u)
					em.write(core, binAddr(dp, len(binLists[dp])), "gpop.scatter.writeBin")
					binLists[dp] = append(binLists[dp], gpopUpdate{dst: u, val: val})
				}
			}
		}
		em.barrier()

		// ---- Gather phase (accumulate + apply) ----
		em.setPhase(1)
		for p := 0; p < numParts; p++ {
			core := ownerCore(p, opt.Cores)
			for k, upd := range binLists[p] {
				em.read(core, binAddr(p, k), "gpop.gather.readBin")
				prog.accumulate(upd.dst, upd.val)
				em.write(core, acc.Elem(int(upd.dst), 8), "gpop.gather.accumulate")
				touched[upd.dst] = true
			}
			lo := p * q
			hi := min((p+1)*q, n)
			for v := lo; v < hi; v++ {
				if !touched[v] {
					continue
				}
				touched[v] = false
				em.read(core, acc.Elem(v, 8), "gpop.gather.readAcc")
				if prog.apply(uint32(v)) {
					em.write(core, vvals.Elem(v, 8), "gpop.gather.writeVertex")
				}
			}
			binLists[p] = binLists[p][:0]
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

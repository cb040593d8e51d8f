package frameworks

import (
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

func (f *gpop) Name() string   { return "gpop" }
func (f *gpop) NumPhases() int { return 2 }
func (f *gpop) Apps() []App    { return []App{BFS, CC, PR, SSSP} }

func (f *gpop) Run(g *graph.Graph, app App, opt Options) (*trace.Trace, *Result, error) {
	r, err := start(f, g, app, opt)
	if err != nil {
		return nil, nil, err
	}
	n := g.NumVertices
	q := r.opt.PartitionSize

	as := trace.NewAddressSpace(0x1000_0000)
	vvals := as.Alloc("gpop.vvals", uint64(n)*8)
	offsets := as.Alloc("gpop.offsets", uint64(n+1)*8)
	edges := as.Alloc("gpop.edges", uint64(g.NumEdges())*8)
	acc := as.Alloc("gpop.acc", uint64(n)*8)
	frontierReg := as.Alloc("gpop.frontier", uint64(n/8+1))
	bins := newBins(as, "gpop.bins", g, q)

	// Scatter streams each partition's active vertices and their out-edges.
	scatter := func() {
		for p := range bins.lists {
			core := ownerCore(p, r.cores)
			lo := uint32(p * q)
			hi := uint32(min((p+1)*q, n))
			for v := lo; v < hi; v++ {
				if v%16 == 0 {
					r.read(core, frontierReg.Elem(int(v)/8, 1), "gpop.scatter.readFrontier")
				}
				if !r.prog.active(v) {
					continue
				}
				r.read(core, vvals.Elem(int(v), 8), "gpop.scatter.readVertex")
				r.read(core, offsets.Elem(int(v), 8), "gpop.scatter.readOffset")
				ws := g.OutWeightsOf(v)
				edgeBase := int(g.OutIndex[v])
				for j, u := range g.OutNeighbors(v) {
					r.read(core, edges.Elem(edgeBase+j, 8), "gpop.scatter.readEdge")
					bins.push(r, core, u, r.prog.propagate(v, ws[j]), "gpop.scatter.writeBin")
				}
			}
		}
	}
	// Gather accumulates each partition's bin and applies it.
	gather := func() {
		bins.gather(r, acc, vvals, "gpop.gather.readBin", "gpop.gather.accumulate", "gpop.gather.readAcc", "gpop.gather.writeVertex")
	}
	return r.drive(r.prog.anyActive, scatter, gather)
}

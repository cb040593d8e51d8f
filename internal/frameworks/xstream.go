package frameworks

import (
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

func (f *xstream) Name() string   { return "xstream" }
func (f *xstream) NumPhases() int { return 2 }
func (f *xstream) Apps() []App    { return []App{BFS, CC, PR, SSSP} }

func (f *xstream) Run(g *graph.Graph, app App, opt Options) (*trace.Trace, *Result, error) {
	r, err := start(f, g, app, opt)
	if err != nil {
		return nil, nil, err
	}
	n := g.NumVertices

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
	rng := rand.New(rand.NewSource(r.opt.Seed + 0x517))
	rng.Shuffle(len(edgeList), func(i, j int) { edgeList[i], edgeList[j] = edgeList[j], edgeList[i] })

	as := trace.NewAddressSpace(0x2000_0000)
	vvals := as.Alloc("xs.vvals", uint64(n)*8)
	edges := as.Alloc("xs.edges", uint64(len(edgeList))*16)
	acc := as.Alloc("xs.acc", uint64(n)*8)
	updates := newBins(as, "xs.updates", g, r.opt.PartitionSize)

	// Edge ranges are striped across cores: each core streams a contiguous
	// chunk of the edge list.
	chunk := (len(edgeList) + r.cores - 1) / r.cores

	// Scatter streams all edges.
	scatter := func() {
		for c := 0; c < r.cores; c++ {
			lo := c * chunk
			hi := min(lo+chunk, len(edgeList))
			for i := lo; i < hi; i++ {
				e := edgeList[i]
				r.read(c, edges.Elem(i, 16), "xs.scatter.readEdge")
				if !r.prog.active(e.src) {
					continue
				}
				// Random read across the whole vertex array.
				r.read(c, vvals.Elem(int(e.src), 8), "xs.scatter.readSrc")
				updates.push(r, c, e.dst, r.prog.propagate(e.src, e.w), "xs.scatter.writeUpdate")
			}
		}
	}
	// Gather streams each partition's updates.
	gather := func() {
		updates.gather(r, acc, vvals, "xs.gather.readUpdate", "xs.gather.accumulate", "xs.gather.readAcc", "xs.gather.writeVertex")
	}
	return r.drive(r.prog.anyActive, scatter, gather)
}

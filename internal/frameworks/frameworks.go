// Package frameworks re-implements the three graph-processing frameworks the
// MPGraph paper evaluates — GPOP (partition-centric Scatter-Gather), X-Stream
// (edge-centric streaming Scatter-Gather), and PowerGraph (GAS) — as
// trace-generating execution models. Each framework actually executes the
// benchmark algorithms (BFS, CC, PR, SSSP, TC) over a graph.Graph and emits
// the memory reference stream its data-structure layout induces: every load
// and store carries a virtual address inside a realistically laid-out address
// space, a program counter identifying the static code site, the issuing
// core, and the ground-truth phase label at that point.
//
// This package is the substitution for "framework binaries under Intel Pin +
// ChampSim trace extraction" (DESIGN.md §2): what the prefetcher models see
// is the (address, PC) stream, and its statistical structure — per-phase
// pattern shifts, PC↔phase clustering, wide page jumps from hub vertices,
// multi-core interleaving — is produced here by the same algorithms over the
// same data layouts the real frameworks use.
package frameworks

import (
	"fmt"
	"math/rand"

	"mpgraph/internal/graph"
	"mpgraph/internal/trace"
)

// App names a benchmark application.
type App string

// Benchmark applications (Table 1).
const (
	BFS  App = "bfs"
	CC   App = "cc"
	PR   App = "pr"
	SSSP App = "sssp"
	TC   App = "tc"
)

// Options controls a framework run.
type Options struct {
	// Cores is the number of simulated cores sharing the LLC (default 4).
	Cores int
	// MaxIterations bounds the number of super-steps (default 11: the paper
	// trains on iteration 1 and tests on the next 10).
	MaxIterations int
	// Seed drives every stochastic choice (interleaving, gaps, sources).
	Seed int64
	// PartitionSize is the vertices-per-partition knob for GPOP/X-Stream
	// (default 2048, sized so one partition's state fits in L2).
	PartitionSize int
}

// meanBurst is the mean per-core run length in the interleaved LLC stream.
const meanBurst = 6

func (o Options) withDefaults() Options {
	if o.Cores <= 0 {
		o.Cores = 4
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 11
	}
	if o.PartitionSize <= 0 {
		o.PartitionSize = 2048
	}
	return o
}

// Result carries algorithm output so tests can check that the execution
// models compute correct answers (the traces are only credible if the
// algorithms actually run).
type Result struct {
	App        App
	Framework  string
	Iterations int
	Converged  bool
	// Values is the per-vertex result: PageRank score, BFS level, CC label,
	// SSSP distance. For TC, Values[0] holds the directed triangle count:
	// triples v < u < w with out-edges v→u, v→w and u→w.
	Values []float64
}

// Framework generates traces by executing applications.
type Framework interface {
	// Name returns the framework identifier ("gpop", "xstream", "powergraph").
	Name() string
	// NumPhases is the phase count per iteration (Table 1).
	NumPhases() int
	// Apps lists the applications the framework implements (Table 1).
	Apps() []App
	// Run executes app on g and returns the interleaved LLC-bound access
	// trace plus the algorithm result.
	Run(g *graph.Graph, app App, opt Options) (*trace.Trace, *Result, error)
}

// All returns the three frameworks in Table 1 order.
func All() []Framework {
	return []Framework{NewGPOP(), NewXStream(), NewPowerGraph()}
}

// registry is one instance of each framework (they are stateless) for ByName
// to hand out, so a lookup constructs nothing.
var registry = All()

// ByName looks a framework up by its Name.
func ByName(name string) (Framework, error) {
	for _, f := range registry {
		if f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("frameworks: unknown framework %q", name)
}

// supportsApp reports whether app is in the framework's benchmark set.
func supportsApp(f Framework, app App) bool {
	for _, a := range f.Apps() {
		if a == app {
			return true
		}
	}
	return false
}

// run is one execution of an app under a framework: its defaulted options,
// its vertex program, the emitter collecting its trace, and its result.
type run struct {
	*emitter
	opt  Options
	prog vertexProgram
	res  *Result
}

// start is the prologue all three execution models share: it fills opt's
// defaults, checks that f implements app, and builds app's vertex program.
func start(f Framework, g *graph.Graph, app App, opt Options) (*run, error) {
	opt = opt.withDefaults()
	if !supportsApp(f, app) {
		return nil, fmt.Errorf("frameworks: %s does not implement %q", f.Name(), app)
	}
	return &run{
		emitter: newEmitter(opt, f.NumPhases(), app, f.Name()),
		opt:     opt,
		prog:    newProgram(app, g),
		res:     &Result{App: app, Framework: f.Name()},
	}, nil
}

// drive is the super-step loop all three execution models share: while
// iterations remain and more reports work left, it runs one super-step of
// phases and ends the program's iteration, stopping once the program
// converges. The result carries the program's output.
func (r *run) drive(more func() bool, phases ...func()) (*trace.Trace, *Result, error) {
	for iter := 0; iter < r.opt.MaxIterations && more(); iter++ {
		r.superStep(phases...)
		r.res.Iterations++
		if r.prog.endIteration() {
			r.res.Converged = true
			break
		}
	}
	r.res.Values = r.prog.output()
	return r.out, r.res, nil
}

// site is a static code site of a framework: the load or store whose
// instruction address Pin would report. Each framework declares its sites
// once, as constants numbered from 0 (gpopScatterReadVertex, ...); a run's
// sites all come from one framework, so the numbers of different frameworks
// may overlap.
type site uint8

// maxSites bounds one framework's site count: the size of a run's PC table.
const maxSites = 32

// PCs are synthetic text addresses: the n-th distinct site a run uses gets
// pcBase + n·pcStep. A framework's phases use disjoint sites, so its PCs
// cluster by phase (Fig. 2b) through the sites themselves, not through the
// addresses.
const (
	pcBase = 0x400000
	pcStep = 0x40
)

// gapMax is math/rand's Int31n(6) rejection bound, the largest multiple of
// 6 below 2³¹ less one: the gap draw takes 1 + v%6 of the first Int31 ≤ it.
const gapMax = (1<<31 - 1) - (1<<31)%6

// emitter collects per-core access streams for one phase and flushes them,
// interleaved, into the growing trace at each barrier.
type emitter struct {
	pcs     [maxSites]uint64 // site → PC, 0 until the site's first use
	sites   uint64           // distinct sites used so far
	src     rand.Source
	cores   int
	phase   uint8
	streams [][]trace.Access // per-core buffers, each at full length
	fill    []int            // accesses in each buffer this phase
	views   [][]trace.Access // the filled part of each buffer, for the merge
	out     *trace.Trace
	seq     int64 // interleave seed sequencer
}

func newEmitter(opt Options, numPhases int, app App, fw string) *emitter {
	return &emitter{
		src:     rand.NewSource(opt.Seed),
		cores:   opt.Cores,
		streams: make([][]trace.Access, opt.Cores),
		fill:    make([]int, opt.Cores),
		views:   make([][]trace.Access, opt.Cores),
		out:     &trace.Trace{NumPhases: numPhases, App: string(app), Framework: fw},
		seq:     opt.Seed,
	}
}

// superStep records an iteration boundary, then runs each phase under its
// ground-truth label and ends it with a barrier.
func (e *emitter) superStep(phases ...func()) {
	e.out.IterationStarts = append(e.out.IterationStarts, len(e.out.Accesses))
	for i, phase := range phases {
		e.phase = uint8(i)
		phase()
		e.barrier()
	}
}

// read emits a load on core at addr from code site s.
func (e *emitter) read(core int, addr uint64, s site) {
	e.emit(core, addr, s, false)
}

// write emits a store on core at addr from code site s.
func (e *emitter) write(core int, addr uint64, s site) {
	e.emit(core, addr, s, true)
}

func (e *emitter) emit(core int, addr uint64, s site, isWrite bool) {
	pc := e.pcs[s]
	if pc == 0 {
		pc = pcBase + e.sites*pcStep
		e.pcs[s] = pc
		e.sites++
	}
	// Gap models the non-memory instructions between this access and the
	// core's previous one; graph kernels are memory bound, so it is small.
	// It is rand.New(src).Intn(6)+1 with math/rand's arithmetic inlined.
	v := int32(e.src.Int63() >> 32)
	for v > gapMax {
		v = int32(e.src.Int63() >> 32)
	}
	// The access is stored by index, not appended: a slice header written
	// back per access costs a GC write barrier while the collector runs.
	// Its fields are stored one by one: a composite literal is built on the
	// stack and copied, and the copy's wide load stalls on the narrow
	// stores that built it.
	buf, n := e.streams[core], e.fill[core]
	if n == len(buf) {
		// make then append, as the barrier grows the trace: make then
		// copy compiles to makeslicecopy, which zeroes the new half even
		// on fresh memory that the kernel hands out zeroed.
		buf = append(make([]trace.Access, 0, max(2*n, 64)), buf...)
		buf = buf[:cap(buf)]
		e.streams[core] = buf
	}
	a := &buf[n]
	a.Addr, a.PC = addr, pc
	a.Core, a.Phase, a.Gap, a.Write = uint8(core), e.phase, uint8(1+v%6), isWrite
	e.fill[core] = n + 1
}

// barrier interleaves the per-core streams gathered since the last barrier
// straight into the trace, modelling the global synchronisation that ends
// each phase. The trace doubles when a phase does not fit, so a run copies
// it about once over instead of append's four times at 1.25x. The returned
// trace keeps the spare capacity doubling leaves: its caller reduces it and
// drops it (experiments.Runner.Trace), and a trimming copy would put a second
// trace on the peak.
func (e *emitter) barrier() {
	e.seq++
	acc := e.out.Accesses
	need := len(acc)
	for c, n := range e.fill {
		e.views[c] = e.streams[c][:n]
		need += n
	}
	if need > cap(acc) {
		acc = append(make([]trace.Access, 0, max(need, 2*cap(acc))), acc...)
	}
	e.out.Accesses = trace.AppendInterleave(acc, e.views, meanBurst, e.seq)
	clear(e.fill)
}

// ownerCore spreads work units across cores.
func ownerCore(unit, cores int) int { return unit % cores }

// binUpdate is one (dst, val) update in a Scatter-Gather bin.
type binUpdate struct {
	dst uint32
	val float64
}

// bins are the per-destination-partition update bins of the two
// Scatter-Gather models: Scatter pushes each update into the bin of its
// destination's partition, and Gather streams every bin into its
// partition's vertices. Each bin's segment holds 2E/parts + 64 updates of 16
// bytes; addresses wrap within a segment on overflow (the Go-side lists keep
// exact semantics, only the modelled addresses wrap).
type bins struct {
	region  trace.Region
	size    int // updates per segment
	q       int // vertices per partition
	lists   [][]binUpdate
	touched []bool
}

// newBins allocates the bins of g's partitions of q vertices as region name.
func newBins(as *trace.AddressSpace, name string, g *graph.Graph, q int) *bins {
	parts := (g.NumVertices + q - 1) / q
	size := 2*g.NumEdges()/parts + 64
	return &bins{
		region:  as.Alloc(name, uint64(parts)*uint64(size)*16),
		size:    size,
		q:       q,
		lists:   make([][]binUpdate, parts),
		touched: make([]bool, g.NumVertices),
	}
}

// addr is the modelled address of the k-th update in partition p's bin. A
// bin rarely overflows its segment, so the wrap divides only when it does.
func (b *bins) addr(p, k int) uint64 {
	if k >= b.size {
		k %= b.size
	}
	return b.region.Base + uint64(p)*uint64(b.size)*16 + uint64(k)*16
}

// push stores val for dst on core, from code site s, into the bin of dst's
// partition.
func (b *bins) push(r *run, core int, dst uint32, val float64, s site) {
	p := int(dst) / b.q
	r.write(core, b.addr(p, len(b.lists[p])), s)
	b.lists[p] = append(b.lists[p], binUpdate{dst: dst, val: val})
}

// gather is the Gather phase of both Scatter-Gather models: the owner core
// of each partition streams its bin, accumulating every update into acc,
// then reads back the accumulator of each vertex it touched and applies it,
// writing vvals where the value changed. The four sites label those reads
// and writes.
func (b *bins) gather(r *run, acc, vvals trace.Region, readBin, accumulate, readAcc, writeVertex site) {
	n := len(b.touched)
	for p, list := range b.lists {
		core := ownerCore(p, r.cores)
		for k, upd := range list {
			r.read(core, b.addr(p, k), readBin)
			r.prog.accumulate(upd.dst, upd.val)
			r.write(core, acc.Elem(int(upd.dst), 8), accumulate)
			b.touched[upd.dst] = true
		}
		for v := p * b.q; v < min((p+1)*b.q, n); v++ {
			if !b.touched[v] {
				continue
			}
			b.touched[v] = false
			r.read(core, acc.Elem(v, 8), readAcc)
			if r.prog.apply(uint32(v)) {
				r.write(core, vvals.Elem(v, 8), writeVertex)
			}
		}
		b.lists[p] = list[:0]
	}
}

package frameworks

import (
	"math"
	"testing"

	"mpgraph/internal/graph"
	"mpgraph/internal/trace"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(9, 21))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallOpts() Options {
	return Options{Cores: 4, MaxIterations: 6, Seed: 1, PartitionSize: 128}
}

// referenceBFS computes hop levels by queue BFS over out-edges.
func referenceBFS(g *graph.Graph, src uint32) []float64 {
	level := make([]float64, g.NumVertices)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(v) {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

// referenceMinLabel computes the fixpoint of min-label propagation along
// directed edges (the semantics all three frameworks implement for CC).
func referenceMinLabel(g *graph.Graph) []float64 {
	label := make([]float64, g.NumVertices)
	for i := range label {
		label[i] = float64(i)
	}
	for changed := true; changed; {
		changed = false
		for v := uint32(0); int(v) < g.NumVertices; v++ {
			for _, u := range g.OutNeighbors(v) {
				if label[v] < label[u] {
					label[u] = label[v]
					changed = true
				}
			}
		}
	}
	return label
}

// referenceSSSP is Dijkstra-free Bellman-Ford to full fixpoint.
func referenceSSSP(g *graph.Graph, src uint32) []float64 {
	dist := make([]float64, g.NumVertices)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for v := uint32(0); int(v) < g.NumVertices; v++ {
			if math.IsInf(dist[v], 1) {
				continue
			}
			ws := g.OutWeightsOf(v)
			for j, u := range g.OutNeighbors(v) {
				if d := dist[v] + float64(ws[j]); d < dist[u] {
					dist[u] = d
					changed = true
				}
			}
		}
	}
	return dist
}

func TestFrameworkRegistry(t *testing.T) {
	if len(All()) != 3 {
		t.Fatal("want 3 frameworks")
	}
	for _, name := range []string{"gpop", "xstream", "powergraph"} {
		f, err := ByName(name)
		if err != nil || f.Name() != name {
			t.Fatalf("ByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ByName("spark"); err == nil {
		t.Fatal("want error for unknown framework")
	}
	gp, _ := ByName("gpop")
	if gp.NumPhases() != 2 {
		t.Fatal("gpop must have 2 phases")
	}
	pg, _ := ByName("powergraph")
	if pg.NumPhases() != 3 {
		t.Fatal("powergraph must have 3 phases")
	}
}

func TestUnsupportedApp(t *testing.T) {
	g := testGraph(t)
	if _, _, err := NewGPOP().Run(g, TC, smallOpts()); err == nil {
		t.Fatal("gpop must reject tc")
	}
	if _, _, err := NewXStream().Run(g, TC, smallOpts()); err == nil {
		t.Fatal("xstream must reject tc")
	}
	if _, _, err := NewPowerGraph().Run(g, BFS, smallOpts()); err == nil {
		t.Fatal("powergraph must reject bfs")
	}
	if _, _, err := NewGPOP().Run(g, App("nope"), smallOpts()); err == nil {
		t.Fatal("unknown app must error")
	}
}

// Each framework must compute the same (correct) BFS levels as a reference
// queue BFS, proving the execution models really run the algorithm.
func TestBFSCorrectness(t *testing.T) {
	g := testGraph(t)
	src := pickSource(g)
	want := referenceBFS(g, src)
	opt := smallOpts()
	opt.MaxIterations = 50 // run to completion
	for _, f := range []Framework{NewGPOP(), NewXStream()} {
		_, res, err := f.Run(g, BFS, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s: BFS did not converge in 50 iters", f.Name())
		}
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("%s: level[%d] = %v, want %v", f.Name(), v, res.Values[v], want[v])
			}
		}
	}
}

func TestCCCorrectness(t *testing.T) {
	g := testGraph(t)
	want := referenceMinLabel(g)
	opt := smallOpts()
	opt.MaxIterations = 200
	for _, f := range All() {
		if !supportsApp(f, CC) {
			continue
		}
		_, res, err := f.Run(g, CC, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s: CC did not converge", f.Name())
		}
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("%s: label[%d] = %v, want %v", f.Name(), v, res.Values[v], want[v])
			}
		}
	}
}

func TestSSSPCorrectness(t *testing.T) {
	g := testGraph(t)
	src := pickSource(g)
	want := referenceSSSP(g, src)
	opt := smallOpts()
	opt.MaxIterations = 200
	for _, f := range All() {
		if !supportsApp(f, SSSP) {
			continue
		}
		_, res, err := f.Run(g, SSSP, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s: SSSP did not converge", f.Name())
		}
		for v := range want {
			if math.Abs(res.Values[v]-want[v]) > 1e-6 {
				t.Fatalf("%s: dist[%d] = %v, want %v", f.Name(), v, res.Values[v], want[v])
			}
		}
	}
}

func TestPageRankProperties(t *testing.T) {
	g := testGraph(t)
	opt := smallOpts()
	opt.MaxIterations = 11
	for _, f := range All() {
		_, res, err := f.Run(g, PR, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if res.Iterations != 11 {
			t.Fatalf("%s: PR ran %d iterations, want 11", f.Name(), res.Iterations)
		}
		// Ranks are positive and the floor is 0.15/N.
		floor := 0.15 / float64(g.NumVertices)
		for v, r := range res.Values {
			if r < floor-1e-12 {
				t.Fatalf("%s: rank[%d] = %g below floor %g", f.Name(), v, r, floor)
			}
		}
	}
}

// PageRank must agree across frameworks: same algorithm, different
// execution orders.
func TestPageRankCrossFramework(t *testing.T) {
	g := testGraph(t)
	opt := smallOpts()
	opt.MaxIterations = 8
	var ref []float64
	for _, f := range All() {
		_, res, err := f.Run(g, PR, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if ref == nil {
			ref = res.Values
			continue
		}
		for v := range ref {
			if math.Abs(ref[v]-res.Values[v]) > 1e-9 {
				t.Fatalf("%s: rank[%d] = %g, ref %g", f.Name(), v, res.Values[v], ref[v])
			}
		}
	}
}

func TestTriangleCountCorrectness(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force count with the same definition: unique edges (v,u) with
	// u>v, unique common out-neighbours w>u.
	want := 0.0
	for v := uint32(0); int(v) < g.NumVertices; v++ {
		nvSet := map[uint32]bool{}
		for _, x := range g.OutNeighbors(v) {
			nvSet[x] = true
		}
		seenU := map[uint32]bool{}
		for _, u := range g.OutNeighbors(v) {
			if u <= v || seenU[u] {
				continue
			}
			seenU[u] = true
			seenW := map[uint32]bool{}
			for _, w := range g.OutNeighbors(u) {
				if w <= u || seenW[w] {
					continue
				}
				seenW[w] = true
				if nvSet[w] {
					want++
				}
			}
		}
	}
	opt := smallOpts()
	opt.MaxIterations = 2
	_, res, err := NewPowerGraph().Run(g, TC, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != want {
		t.Fatalf("TC = %v, want %v", res.Values[0], want)
	}
}

// Traces must be structurally valid and exhibit the properties the models
// rely on: phase labels alternate at barriers, PCs cluster by phase, and
// multiple cores interleave.
func TestTraceStructure(t *testing.T) {
	g := testGraph(t)
	for _, f := range All() {
		app := PR
		tr, res, err := f.Run(g, app, smallOpts())
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if tr.NumIterations() != res.Iterations {
			t.Fatalf("%s: trace has %d iterations, result says %d", f.Name(), tr.NumIterations(), res.Iterations)
		}
		if tr.NumPhases != f.NumPhases() {
			t.Fatalf("%s: NumPhases mismatch", f.Name())
		}
		// Phase labels must cycle 0..NumPhases-1 within each iteration.
		transitions := tr.PhaseTransitions()
		if len(transitions) < res.Iterations*(f.NumPhases()-1) {
			t.Fatalf("%s: too few phase transitions: %d", f.Name(), len(transitions))
		}
		// PC sets must be disjoint between phases (Fig. 2b property).
		pcPhases := map[uint64]map[uint8]bool{}
		for _, a := range tr.Accesses {
			if pcPhases[a.PC] == nil {
				pcPhases[a.PC] = map[uint8]bool{}
			}
			pcPhases[a.PC][a.Phase] = true
		}
		for pc, phases := range pcPhases {
			if len(phases) != 1 {
				t.Fatalf("%s: PC %#x appears in %d phases", f.Name(), pc, len(phases))
			}
		}
		// All cores participate.
		cores := map[uint8]bool{}
		for _, a := range tr.Accesses {
			cores[a.Core] = true
		}
		if len(cores) != 4 {
			t.Fatalf("%s: %d cores in trace, want 4", f.Name(), len(cores))
		}
	}
}

// The paper's Fig. 3: GPOP scatter makes wide page jumps (bins spread across
// partitions) while staying sequential within streams.
func TestGPOPPageJumps(t *testing.T) {
	g := testGraph(t)
	tr, _, err := NewGPOP().Run(g, PR, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for i := 1; i < len(tr.Accesses); i++ {
		a, b := tr.Accesses[i-1], tr.Accesses[i]
		if a.Core != b.Core {
			continue
		}
		pj := int64(trace.Page(b.Addr)) - int64(trace.Page(a.Addr))
		if pj > 8 || pj < -8 {
			wide++
		}
	}
	if wide < len(tr.Accesses)/100 {
		t.Fatalf("expected wide page jumps, got %d of %d", wide, len(tr.Accesses))
	}
}

// Distinct phases must have distinct dominant access regions so that
// phase-specific models have something to specialise on.
func TestPhasePatternDiversity(t *testing.T) {
	g := testGraph(t)
	tr, _, err := NewGPOP().Run(g, PR, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	pagesByPhase := map[uint8]map[uint64]bool{}
	for _, a := range tr.Accesses {
		if pagesByPhase[a.Phase] == nil {
			pagesByPhase[a.Phase] = map[uint64]bool{}
		}
		pagesByPhase[a.Phase][trace.Page(a.Addr)] = true
	}
	if len(pagesByPhase) != 2 {
		t.Fatalf("want 2 phases, got %d", len(pagesByPhase))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Cores != 4 || o.MaxIterations != 11 || o.PartitionSize != 2048 {
		t.Fatalf("bad defaults: %+v", o)
	}
}

// TestTraceSpareCapacityBounded: the emitter doubles the trace while it
// grows, but a finished Run hands over no more spare capacity than append's
// own 1.25x growth would have left — the ML fixtures keep a trace live for a
// whole run. Iteration counts 1..6 land the final length at different points
// between two doublings.
func TestTraceSpareCapacityBounded(t *testing.T) {
	g := testGraph(t)
	for _, f := range All() {
		for iters := 1; iters <= 6; iters++ {
			opt := smallOpts()
			opt.MaxIterations = iters
			tr, _, err := f.Run(g, PR, opt)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			if n, spare := len(tr.Accesses), cap(tr.Accesses)-len(tr.Accesses); n == 0 || spare > n/4 {
				t.Fatalf("%s, %d iterations: %d accesses with %d spare slots, want at most a quarter", f.Name(), iters, n, spare)
			}
		}
	}
}

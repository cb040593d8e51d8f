package core

import (
	"fmt"
	"runtime"
	"testing"

	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// newAMMAMPGraph builds an MPGraph over untrained (random-init) AMMA
// models: weight values are irrelevant to allocation and timing behavior,
// so training is skipped.
func newAMMAMPGraph(tb testing.TB, opt Options) *MPGraph {
	return newAMMAMPGraphPhases(tb, opt, silentDetector{}, 1)
}

// newAMMAMPGraphPhases is newAMMAMPGraph with a detector of the caller's
// choice and one delta/page model pair per phase, so phase switches and
// probation have candidates to choose between.
func newAMMAMPGraphPhases(tb testing.TB, opt Options, det phasedet.Detector, phases int) *MPGraph {
	tb.Helper()
	cfg := models.SmallConfig()
	var pcVals, pageVals []uint64
	for i := 0; i < 32; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	pcs := models.BuildVocab(pcVals, cfg.PCVocab)
	pages := models.BuildVocab(pageVals, cfg.PageVocab)
	var deltas []models.DeltaModel
	var pageModels []models.PageModel
	for p := 0; p < phases; p++ {
		deltas = append(deltas, models.NewAMMADelta(cfg, pcs, 0, int64(2*p+1)))
		pageModels = append(pageModels, models.NewAMMAPage(cfg, pages, pcs, 0, int64(2*p+2)))
	}
	m, err := New(opt, cfg.HistoryT, det, deltas, pageModels)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// mpgraphStepper drives Operate with a 64-block cyclic pattern confined to
// one page, so the PBOT and history stay in steady state.
func mpgraphStepper(m *MPGraph) func() {
	i := 0
	return func() {
		i++
		m.Operate(sim.LLCAccess{Block: uint64(1<<20 + i%64), PC: 0x400000 + 0x40*uint64(i%3)})
	}
}

// pairedAllocs counts the heap allocations per call of a warmed-up step at
// GOMAXPROCS 2, where a pair posts its page call to a helper goroutine, whose
// allocations the count includes. testing.AllocsPerRun cannot: it runs at
// GOMAXPROCS 1, where a pair never posts. The runtime allocates now and then
// on its own, and an arena grows once when page calls move to the pair's, so
// the count is the quietest of three 64-call windows. It fails t unless pair
// posted page calls inside the windows.
func pairedAllocs(t *testing.T, pair *models.Pair, step func()) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	posted := pair.Helped + pair.Claimed
	least := ^uint64(0)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < 64; n++ {
			step()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if pair.Helped+pair.Claimed == posted {
		t.Fatal("no page call was posted: the pair path was not taken")
	}
	return float64(least) / 64
}

// TestMPGraphOperateZeroAlloc runs the production detector, Soft-KSWIN, in
// front of the models: the warm-up fills its 300-observation window, so every
// measured Operate also slides and tests it.
func TestMPGraphOperateZeroAlloc(t *testing.T) {
	m := newAMMAMPGraphPhases(t, DefaultOptions(), phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: 1}), 1)
	step := mpgraphStepper(m)
	for n := 0; n < 400; n++ {
		step()
	}
	if allocs := pairedAllocs(t, m.pair, step); allocs != 0 {
		t.Fatalf("steady-state AMMA MPGraph.Operate allocates %.2f/op, want 0", allocs)
	}
}

// newChainMPGraph builds the fixture whose chains run to their end: the
// oracle's AMMA suite (core_test.go), whose page head holds only pages the
// stepper visits, so unlike newAMMAMPGraph's models these name a page the
// PBOT has and step 2 is reached.
func newChainMPGraph(tb testing.TB, f32 bool) *MPGraph {
	tb.Helper()
	deltas, pages, historyT := ammaSuite(tb, f32)
	m, err := New(DefaultOptions(), historyT, silentDetector{}, deltas[:1], pages[:1])
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// chainStepper drives Operate over all 32 pages of the suite's vocabulary,
// coming back to each every 32 accesses, so every predicted page is a PBOT
// hit.
func chainStepper(operate func(sim.LLCAccess) []uint64) func() {
	i := 0
	return func() {
		i++
		operate(sim.LLCAccess{
			Block: trace.BlockOfPageOffset(chainPage0+uint64(i*7%32), uint64(i*3%64)),
			PC:    chainPC0 + 0x40*uint64(i%3),
			Core:  uint8(i % 2),
		})
	}
}

// TestChainOperateZeroAlloc: the other fixtures stop at the first PBOT miss,
// so only this one walks the temporal steps (tail samples, the visited list)
// under the allocation gate — on both controllers.
func TestChainOperateZeroAlloc(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		m := newChainMPGraph(t, f32)
		pc, err := NewPerCore(DefaultOptions(), m.hist.T, 2, func() phasedet.Detector { return silentDetector{} }, m.deltas, m.pages)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			operate func(sim.LLCAccess) []uint64
			chain   *chain
		}{"mpgraph": {m.Operate, &m.chain}, "percore": {pc.Operate, &pc.chain}} {
			step := chainStepper(c.operate)
			for n := 0; n < 96; n++ {
				step()
			}
			before := c.chain.ChainStats
			if allocs := pairedAllocs(t, c.chain.pair, step); allocs != 0 {
				t.Fatalf("%s f32=%v: steady-state chain Operate allocates %.2f/op, want 0", name, f32, allocs)
			}
			if after := c.chain.ChainStats; after.ChainSteps == before.ChainSteps || after.Revisits == before.Revisits {
				t.Fatalf("%s f32=%v: fixture took no chain step or met no revisit: %+v", name, f32, after)
			}
		}
	}
}

// everyNDetector fires a transition every n observations.
type everyNDetector struct{ n, seen int }

func (d *everyNDetector) Name() string { return "every-n" }
func (d *everyNDetector) Observe(float64) bool {
	d.seen++
	return d.seen%d.n == 0
}
func (d *everyNDetector) Reset() { d.seen = 0 }

// TestMPGraphTransitionsZeroAlloc: the 0-allocs/op claim has to hold on a
// trace WITH phase transitions, not only on the steady single-phase fixture —
// an OraclePhase trace that flips phase every 40 accesses, and a detector
// that fires every 70 so probation windows (48 accesses: begin, feed, score,
// commit) open and close inside the measured run.
func TestMPGraphTransitionsZeroAlloc(t *testing.T) {
	oracle := DefaultOptions()
	oracle.OraclePhase = true
	cases := map[string]*MPGraph{
		"oracle-phase": newAMMAMPGraphPhases(t, oracle, nil, 2),
		"probation":    newAMMAMPGraphPhases(t, DefaultOptions(), &everyNDetector{n: 70}, 2),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, m := range cases {
		i := 0
		step := func() {
			i++
			m.Operate(sim.LLCAccess{
				Block: uint64(1<<20 + i%64),
				PC:    0x400000 + 0x40*uint64(i%3),
				Phase: uint8((i / 40) % 2),
			})
		}
		for n := 0; n < 300; n++ {
			step()
		}
		// Count mallocs over whole windows: testing.AllocsPerRun reports an
		// integral average, which rounds a few allocations per transition
		// down to 0. The runtime itself allocates now and then (a GC cycle
		// starting), so take the quietest of three windows: an allocation
		// per transition would show in every one.
		least := ^uint64(0)
		for w := 0; w < 3; w++ {
			transitions := m.Transitions
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for n := 0; n < 400; n++ {
				step()
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
			if m.Transitions-transitions < 4 {
				t.Fatalf("%s: only %d transitions inside a measured window", name, m.Transitions-transitions)
			}
		}
		if least != 0 {
			t.Fatalf("%s: at least %d allocations per 400 Operate calls across transitions, want 0", name, least)
		}
	}
}

func benchMPGraphOperate(b *testing.B, opt Options) {
	m := newAMMAMPGraph(b, opt)
	step := mpgraphStepper(m)
	for n := 0; n < 96; n++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
}

func BenchmarkOperateMPGraphAMMA(b *testing.B) {
	benchMPGraphOperate(b, DefaultOptions())
}

// benchChainOperate is the ledger row that sees the temporal chain: the
// AMMA rows above sit at 2 model calls per Operate (delta, page, PBOT miss),
// this one runs chains to a revisit or the degree budget.
func benchChainOperate(b *testing.B, f32 bool) {
	m := newChainMPGraph(b, f32)
	step := chainStepper(m.Operate)
	for n := 0; n < 96; n++ {
		step()
	}
	before := m.ChainStats
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
	b.ReportMetric(float64(m.ModelCalls-before.ModelCalls)/float64(b.N), "modelcalls/op")
}

// atProcs runs bench at GOMAXPROCS 1, where a pair never posts, and at 2,
// where a step's page call can run beside its delta call.
func atProcs(b *testing.B, bench func(b *testing.B)) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			bench(b)
		})
	}
}

func BenchmarkOperateMPGraphChain(b *testing.B) {
	atProcs(b, func(b *testing.B) { benchChainOperate(b, false) })
}

// BenchmarkOperateMPGraphChainF32 pairs with BenchmarkOperateMPGraphChain.
func BenchmarkOperateMPGraphChainF32(b *testing.B) {
	atProcs(b, func(b *testing.B) { benchChainOperate(b, true) })
}

// newInt8AMMAMPGraph is newAMMAMPGraph with the models swapped for their
// 8-bit-weight mirrors.
func newInt8AMMAMPGraph(tb testing.TB, opt Options) *MPGraph {
	tb.Helper()
	cfg := models.SmallConfig()
	var pcVals, pageVals []uint64
	for i := 0; i < 32; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	pcs := models.BuildVocab(pcVals, cfg.PCVocab)
	pages := models.BuildVocab(pageVals, cfg.PageVocab)
	delta, page, err := models.QuantizeSuite(
		models.NewAMMADelta(cfg, pcs, 0, 1),
		models.NewAMMAPage(cfg, pages, pcs, 0, 2), nil)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(opt, cfg.HistoryT, silentDetector{}, []models.DeltaModel{delta}, []models.PageModel{page})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// newStudentMPGraph builds an MPGraph over the §6.1 compressed-student
// shape: an AMMA delta plus a binary-encoded page head, optionally swapped
// for their 8-bit-weight mirrors.
func newStudentMPGraph(tb testing.TB, opt Options, int8Path bool) *MPGraph {
	tb.Helper()
	cfg := models.SmallConfig()
	var pcVals, pageVals []uint64
	for i := 0; i < 32; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	pcs := models.BuildVocab(pcVals, cfg.PCVocab)
	pages := models.BuildVocab(pageVals, cfg.PageVocab)
	var delta models.DeltaModel = models.NewAMMADelta(cfg, pcs, 0, 3)
	var page models.PageModel = models.NewBinaryPage(cfg, pages, pcs, 4)
	if int8Path {
		var err error
		delta, page, err = models.QuantizeSuite(delta, page, nil)
		if err != nil {
			tb.Fatal(err)
		}
	}
	m, err := New(opt, cfg.HistoryT, silentDetector{}, []models.DeltaModel{delta}, []models.PageModel{page})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestMPGraphOperateZeroAllocInt8(t *testing.T) {
	m := newInt8AMMAMPGraph(t, DefaultOptions())
	step := mpgraphStepper(m)
	for n := 0; n < 96; n++ {
		step()
	}
	if allocs := testing.AllocsPerRun(64, step); allocs != 0 {
		t.Fatalf("steady-state int8 MPGraph.Operate allocates %.1f/op, want 0", allocs)
	}
}

func TestMPGraphOperateZeroAllocStudent(t *testing.T) {
	for _, int8Path := range []bool{false, true} {
		m := newStudentMPGraph(t, DefaultOptions(), int8Path)
		step := mpgraphStepper(m)
		for n := 0; n < 96; n++ {
			step()
		}
		if allocs := testing.AllocsPerRun(64, step); allocs != 0 {
			t.Fatalf("steady-state student MPGraph.Operate (int8=%v) allocates %.1f/op, want 0", int8Path, allocs)
		}
	}
}

// newF32AMMAMPGraph is newAMMAMPGraph with the models swapped for their
// narrowed single-precision mirrors.
func newF32AMMAMPGraph(tb testing.TB, opt Options) *MPGraph {
	tb.Helper()
	cfg := models.SmallConfig()
	var pcVals, pageVals []uint64
	for i := 0; i < 32; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	pcs := models.BuildVocab(pcVals, cfg.PCVocab)
	pages := models.BuildVocab(pageVals, cfg.PageVocab)
	delta, page, err := models.ConvertSuiteF32(
		models.NewAMMADelta(cfg, pcs, 0, 1),
		models.NewAMMAPage(cfg, pages, pcs, 0, 2))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(opt, cfg.HistoryT, silentDetector{}, []models.DeltaModel{delta}, []models.PageModel{page})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestMPGraphOperateZeroAllocF32(t *testing.T) {
	m := newF32AMMAMPGraph(t, DefaultOptions())
	step := mpgraphStepper(m)
	for n := 0; n < 96; n++ {
		step()
	}
	if allocs := pairedAllocs(t, m.pair, step); allocs != 0 {
		t.Fatalf("steady-state f32 MPGraph.Operate allocates %.2f/op, want 0", allocs)
	}
}

// BenchmarkOperateMPGraphAMMAF32 pairs with BenchmarkOperateMPGraphAMMA
// (mpgraph-bench derives the f32 speedup from the name).
func BenchmarkOperateMPGraphAMMAF32(b *testing.B) {
	m := newF32AMMAMPGraph(b, DefaultOptions())
	step := mpgraphStepper(m)
	for n := 0; n < 96; n++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
}

func BenchmarkOperateMPGraphStudent(b *testing.B) {
	m := newStudentMPGraph(b, DefaultOptions(), false)
	step := mpgraphStepper(m)
	for n := 0; n < 96; n++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
}

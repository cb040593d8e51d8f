package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// fakeDelta always predicts a fixed delta with certainty.
type fakeDelta struct {
	delta   int64
	classes int
}

func (f fakeDelta) DeltaLoss(*models.Sample) *tensor.Tensor { panic("inference only") }
func (f fakeDelta) Params() []*tensor.Tensor                { return nil }
func (f fakeDelta) DeltaScores(*models.Sample) []float64 {
	out := make([]float64, f.classes)
	half := f.classes / 2
	var cls int
	if f.delta < 0 {
		cls = int(f.delta) + half
	} else {
		cls = int(f.delta) + half - 1
	}
	out[cls] = 1
	return out
}

// fakePage always predicts a fixed page sequence.
type fakePage struct{ pages []uint64 }

func (f fakePage) PageLoss(*models.Sample) *tensor.Tensor { panic("inference only") }
func (f fakePage) Params() []*tensor.Tensor               { return nil }
func (f fakePage) TopPages(_ *models.Sample, k int) []uint64 {
	if k > len(f.pages) {
		k = len(f.pages)
	}
	return f.pages[:k]
}

// silentDetector never fires.
type silentDetector struct{}

func (silentDetector) Name() string         { return "silent" }
func (silentDetector) Observe(float64) bool { return false }
func (silentDetector) Reset()               {}

// scriptedDetector fires at a fixed observation count.
type scriptedDetector struct {
	at, seen int
}

func (d *scriptedDetector) Name() string { return "scripted" }
func (d *scriptedDetector) Observe(float64) bool {
	d.seen++
	return d.seen == d.at
}
func (d *scriptedDetector) Reset() { d.seen = 0 }

func TestPBOT(t *testing.T) {
	p := NewPBOT(2)
	p.Update(trace.BlockOfPageOffset(10, 5), 0xA)
	p.Update(trace.BlockOfPageOffset(11, 7), 0xB)
	e, ok := p.Lookup(10)
	if !ok || e.Offset != 5 || e.PC != 0xA {
		t.Fatalf("entry %+v", e)
	}
	// Updating an existing page must not evict.
	p.Update(trace.BlockOfPageOffset(10, 9), 0xC)
	if p.Len() != 2 {
		t.Fatal("update must not grow")
	}
	e, _ = p.Lookup(10)
	if e.Offset != 9 || e.PC != 0xC {
		t.Fatal("update must overwrite")
	}
	// Third page evicts the FIFO head (page 10).
	p.Update(trace.BlockOfPageOffset(12, 1), 0xD)
	if _, ok := p.Lookup(10); ok {
		t.Fatal("page 10 should be evicted")
	}
	if _, ok := p.Lookup(11); !ok {
		t.Fatal("page 11 should survive")
	}
	if NewPBOT(0).max != 4096 {
		t.Fatal("default size")
	}
}

func newTestMPGraph(t *testing.T, opt Options, det interface {
	Name() string
	Observe(float64) bool
	Reset()
}, deltas []models.DeltaModel, pages []models.PageModel) *MPGraph {
	t.Helper()
	m, err := New(opt, 4, det, deltas, pages)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	d := []models.DeltaModel{fakeDelta{1, 8}}
	p := []models.PageModel{fakePage{}}
	if _, err := New(DefaultOptions(), 4, silentDetector{}, nil, nil); err == nil {
		t.Fatal("empty models must fail")
	}
	if _, err := New(DefaultOptions(), 4, silentDetector{}, d, nil); err == nil {
		t.Fatal("mismatched models must fail")
	}
	bad := DefaultOptions()
	bad.SpatialDegree = 0
	if _, err := New(bad, 4, silentDetector{}, d, p); err == nil {
		t.Fatal("zero spatial degree must fail")
	}
	if _, err := New(DefaultOptions(), 4, nil, d, p); err == nil {
		t.Fatal("nil detector without oracle must fail")
	}
	oracle := DefaultOptions()
	oracle.OraclePhase = true
	if _, err := New(oracle, 4, nil, d, p); err != nil {
		t.Fatalf("oracle without detector should work: %v", err)
	}
}

func TestCSTPChain(t *testing.T) {
	opt := DefaultOptions()
	opt.SpatialDegree = 2
	opt.TemporalDegree = 2
	deltas := []models.DeltaModel{fakeDelta{1, 126}}
	pages := []models.PageModel{fakePage{pages: []uint64{500}}}
	m := newTestMPGraph(t, opt, silentDetector{}, deltas, pages)

	// Prime PBOT with page 500 at offset 3 and warm the history.
	m.Operate(sim.LLCAccess{Block: trace.BlockOfPageOffset(500, 3), PC: 1})
	var out []uint64
	for i := 0; i < 6; i++ {
		out = m.Operate(sim.LLCAccess{Block: trace.BlockOfPageOffset(100, uint64(i)), PC: 1})
	}
	if len(out) == 0 {
		t.Fatal("no prefetches")
	}
	if len(out) > opt.MaxTotalDegree() {
		t.Fatalf("degree %d exceeds Eq.11 bound %d", len(out), opt.MaxTotalDegree())
	}
	// The chain must include page 500's base block (offset 3, as updated by
	// later PBOT writes it may move — it was only written once).
	base := trace.BlockOfPageOffset(500, 3)
	foundChain := false
	for _, b := range out {
		if trace.PageOfBlock(b) == 500 {
			foundChain = true
		}
	}
	if !foundChain {
		t.Fatalf("chain did not reach predicted page: %v (want page of %d)", out, base)
	}
	// Spatial prediction at current block (+1) must be present.
	cur := trace.BlockOfPageOffset(100, 5)
	foundSpatial := false
	for _, b := range out {
		if b == cur+1 {
			foundSpatial = true
		}
	}
	if !foundSpatial {
		t.Fatalf("missing spatial prefetch %d in %v", cur+1, out)
	}
}

func TestCSTPChainStopsWithoutPBOT(t *testing.T) {
	opt := DefaultOptions()
	deltas := []models.DeltaModel{fakeDelta{1, 126}}
	pages := []models.PageModel{fakePage{pages: []uint64{999}}} // never accessed
	m := newTestMPGraph(t, opt, silentDetector{}, deltas, pages)
	var out []uint64
	for i := 0; i < 6; i++ {
		out = m.Operate(sim.LLCAccess{Block: uint64(6400 + i), PC: 1})
	}
	// Only the spatial step should fire: page 999 is not in PBOT.
	for _, b := range out {
		if trace.PageOfBlock(b) == 999 {
			t.Fatalf("chain used missing PBOT entry: %v", out)
		}
	}
	if len(out) == 0 || len(out) > opt.SpatialDegree {
		t.Fatalf("want only spatial prefetches, got %v", out)
	}
}

// Property (Eq. 11): for any degree settings, the issued degree never
// exceeds Ds*(Dt+1).
func TestQuickDegreeBound(t *testing.T) {
	f := func(rawDs, rawDt uint8) bool {
		ds := int(rawDs)%4 + 1
		dt := int(rawDt) % 4
		opt := DefaultOptions()
		opt.SpatialDegree, opt.TemporalDegree = ds, dt
		deltas := []models.DeltaModel{fakeDelta{1, 126}}
		pages := []models.PageModel{fakePage{pages: []uint64{77}}}
		m, err := New(opt, 4, silentDetector{}, deltas, pages)
		if err != nil {
			return false
		}
		m.Operate(sim.LLCAccess{Block: trace.BlockOfPageOffset(77, 0), PC: 1})
		var out []uint64
		for i := 0; i < 8; i++ {
			out = m.Operate(sim.LLCAccess{Block: trace.BlockOfPageOffset(33, uint64(i)), PC: 1})
		}
		return len(out) <= ds*(dt+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOraclePhaseSwitching(t *testing.T) {
	opt := DefaultOptions()
	opt.OraclePhase = true
	deltas := []models.DeltaModel{fakeDelta{1, 126}, fakeDelta{2, 126}}
	pages := []models.PageModel{fakePage{}, fakePage{}}
	m := newTestMPGraph(t, opt, nil, deltas, pages)
	for i := 0; i < 10; i++ {
		m.Operate(sim.LLCAccess{Block: uint64(100 + i), PC: 1, Phase: 0})
	}
	if m.Phase() != 0 {
		t.Fatal("phase 0 expected")
	}
	var out []uint64
	for i := 0; i < 10; i++ {
		out = m.Operate(sim.LLCAccess{Block: uint64(200 + i), PC: 1, Phase: 1})
	}
	if m.Phase() != 1 || m.Transitions != 1 {
		t.Fatalf("phase %d transitions %d", m.Phase(), m.Transitions)
	}
	// Phase 1 model predicts +2.
	cur := uint64(209)
	found := false
	for _, b := range out {
		if b == cur+2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("phase-1 model (+2) not used: %v", out)
	}
}

// After a detected transition, probation must pick the phase whose
// predictor matches the new access pattern.
func TestProbationSelectsBestPhase(t *testing.T) {
	opt := DefaultOptions()
	opt.ProbationWindow = 20
	det := &scriptedDetector{at: 30}
	deltas := []models.DeltaModel{fakeDelta{5, 126}, fakeDelta{1, 126}}
	pages := []models.PageModel{fakePage{}, fakePage{}}
	m := newTestMPGraph(t, opt, det, deltas, pages)

	// Phase 0 regime: +5 strides (phase 0's model matches).
	b := uint64(1 << 16)
	for i := 0; i < 30; i++ {
		m.Operate(sim.LLCAccess{Block: b, PC: 1})
		b += 5
	}
	// Detector fires at access 30; the stream switches to +1 strides,
	// matching phase 1's model.
	for i := 0; i < 40; i++ {
		m.Operate(sim.LLCAccess{Block: b, PC: 1})
		b++
	}
	if m.Transitions != 1 {
		t.Fatalf("transitions %d", m.Transitions)
	}
	if m.Phase() != 1 {
		t.Fatalf("probation picked phase %d, want 1 (scores)", m.Phase())
	}
	if m.Switches != 1 {
		t.Fatalf("switches %d", m.Switches)
	}
}

func TestMPGraphName(t *testing.T) {
	opt := DefaultOptions()
	opt.LatencyCycles = 123
	m := newTestMPGraph(t, opt, silentDetector{},
		[]models.DeltaModel{fakeDelta{1, 126}}, []models.PageModel{fakePage{}})
	if m.Name() != "mpgraph" {
		t.Fatal("name")
	}
	if m.InferenceLatencyCycles() != 123 {
		t.Fatal("latency")
	}
	var _ sim.Prefetcher = m
	var _ sim.InferenceLatency = m
}

func TestPerCoreValidation(t *testing.T) {
	d := []models.DeltaModel{fakeDelta{1, 126}}
	p := []models.PageModel{fakePage{}}
	mk := func() phasedet.Detector { return silentDetector{} }
	if _, err := NewPerCore(DefaultOptions(), 4, 0, mk, d, p); err == nil {
		t.Fatal("zero cores must fail")
	}
	if _, err := NewPerCore(DefaultOptions(), 4, 2, nil, d, p); err == nil {
		t.Fatal("nil factory must fail")
	}
	if _, err := NewPerCore(DefaultOptions(), 4, 2, mk, nil, nil); err == nil {
		t.Fatal("empty models must fail")
	}
	bad := DefaultOptions()
	bad.SpatialDegree = 0
	if _, err := NewPerCore(bad, 4, 2, mk, d, p); err == nil {
		t.Fatal("bad degrees must fail")
	}
	m, err := NewPerCore(DefaultOptions(), 4, 2, mk, d, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "mpgraph-percore" {
		t.Fatal("name")
	}
	var _ sim.Prefetcher = m
}

// Each core's detector advances that core's phase independently — the
// asynchronous-framework extension from the paper's conclusion.
func TestPerCoreIndependentPhases(t *testing.T) {
	opt := DefaultOptions()
	deltas := []models.DeltaModel{fakeDelta{1, 126}, fakeDelta{2, 126}}
	pages := []models.PageModel{fakePage{}, fakePage{}}
	// Core 0's detector fires at its 5th observation; core 1's never does.
	made := 0
	mk := func() phasedet.Detector {
		made++
		if made == 1 {
			return &scriptedDetector{at: 5}
		}
		return silentDetector{}
	}
	m, err := NewPerCore(opt, 4, 2, mk, deltas, pages)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Operate(sim.LLCAccess{Block: uint64(100 + i), PC: 1, Core: 0})
		m.Operate(sim.LLCAccess{Block: uint64(500 + i), PC: 1, Core: 1})
	}
	if m.CorePhase(0) != 1 {
		t.Fatalf("core 0 phase = %d, want 1 after detection", m.CorePhase(0))
	}
	if m.CorePhase(1) != 0 {
		t.Fatalf("core 1 phase = %d, want 0", m.CorePhase(1))
	}
	if m.Transitions != 1 {
		t.Fatalf("transitions %d", m.Transitions)
	}
	// Core 0 now predicts with the phase-1 model (+2), core 1 with phase-0 (+1).
	out0 := m.Operate(sim.LLCAccess{Block: 200, PC: 1, Core: 0})
	found := false
	for _, b := range out0 {
		if b == 202 {
			found = true
		}
	}
	if !found {
		t.Fatalf("core 0 should use +2 model: %v", out0)
	}
	out1 := m.Operate(sim.LLCAccess{Block: 600, PC: 1, Core: 1})
	found = false
	for _, b := range out1 {
		if b == 601 {
			found = true
		}
	}
	if !found {
		t.Fatalf("core 1 should use +1 model: %v", out1)
	}
}

func TestPerCoreChainAndDegreeBound(t *testing.T) {
	opt := DefaultOptions()
	opt.LatencyCycles = 55
	deltas := []models.DeltaModel{fakeDelta{1, 126}}
	pages := []models.PageModel{fakePage{pages: []uint64{321}}}
	m, err := NewPerCore(opt, 4, 2, func() phasedet.Detector { return silentDetector{} }, deltas, pages)
	if err != nil {
		t.Fatal(err)
	}
	if m.InferenceLatencyCycles() != 55 {
		t.Fatal("latency")
	}
	m.Operate(sim.LLCAccess{Block: trace.BlockOfPageOffset(321, 7), PC: 9, Core: 0})
	var out []uint64
	for i := 0; i < 6; i++ {
		out = m.Operate(sim.LLCAccess{Block: trace.BlockOfPageOffset(50, uint64(i)), PC: 9, Core: 0})
	}
	if len(out) == 0 || len(out) > opt.MaxTotalDegree() {
		t.Fatalf("degree bound violated: %d not in (0,%d]", len(out), opt.MaxTotalDegree())
	}
	reached := false
	for _, b := range out {
		if trace.PageOfBlock(b) == 321 {
			reached = true
		}
	}
	if !reached {
		t.Fatalf("chain should reach page 321 via shared PBOT: %v", out)
	}
}

// --- CSTP differential oracle -------------------------------------------
//
// The chain stops at a tail it has already evaluated in this Operate. The
// tests below hold it to the loop it replaced: same prefetches, same health,
// and exactly the reference's distinct (model, sample) evaluations.

// refChain is the state the pre-PR controllers kept for their chain.
type refChain struct {
	opt         Options
	deltas      []models.DeltaModel
	pages       []models.PageModel
	pbot        *PBOT
	ctx         *tensor.Ctx
	sampScratch models.Sample
	tailScratch models.Sample
	out         []uint64
	deltaBuf    []uint64
	pageBuf     []uint64
	health      error
}

func newRefChain(opt Options, deltas []models.DeltaModel, pages []models.PageModel) refChain {
	return refChain{opt: opt, deltas: deltas, pages: pages, pbot: NewPBOT(opt.PBOTSize), ctx: tensor.NewCtx()}
}

func (m *refChain) Health() error { return m.health }

func (m *refChain) deltaTargetsAppend(dm models.DeltaModel, s *models.Sample, base uint64, k int, dst []uint64) ([]uint64, error) {
	if m.opt.Scheduler != nil {
		return models.AppendDeltaTargets(m.ctx, m.opt.Scheduler.DeltaScores(dm, s), base, k, dst)
	}
	return models.AppendDeltaTargets(m.ctx, models.DeltaScoresWith(m.ctx, dm, s), base, k, dst)
}

func (m *refChain) topPages(pm models.PageModel, s *models.Sample, k int, dst []uint64) []uint64 {
	if m.opt.Scheduler != nil {
		return m.opt.Scheduler.TopPages(pm, s, k, dst)
	}
	return models.TopPagesWith(m.ctx, pm, s, k, dst)
}

func (m *refChain) recordHealth(err error) {
	if m.health == nil {
		m.health = err
	}
}

// referenceCSTP is MPGraph.cstp as it stood before the visited-state rule,
// verbatim except that the history and phase arrive as arguments (the
// per-core controller ran the same loop over hists[c], phases[c]). It
// re-evaluates a revisited tail; the oracle below shows that never changes a
// prediction or the health defect.
func (m *refChain) referenceCSTP(hist *models.History, phase int, block uint64) []uint64 {
	maxDegree := m.opt.MaxTotalDegree()
	out := m.out[:0]
	sample := hist.SampleInto(&m.sampScratch, phase)
	delta := m.deltas[phase%len(m.deltas)]
	page := m.pages[phase%len(m.pages)]

	// Step 0: spatial deltas at the current block.
	var err error
	m.deltaBuf, err = m.deltaTargetsAppend(delta, sample, block, m.opt.SpatialDegree, m.deltaBuf[:0])
	if err != nil {
		m.recordHealth(err)
	}
	for _, b := range m.deltaBuf {
		out = refAddUnique(out, b, maxDegree)
	}

	// Temporal chain: predicted page -> PBOT offset -> further spatial and
	// temporal inference, until the degree budget, a missing PBOT entry, or
	// the temporal depth runs out.
	cur := sample
	for step := 0; step < m.opt.TemporalDegree; step++ {
		m.pageBuf = m.topPages(page, cur, 1, m.pageBuf[:0])
		if len(m.pageBuf) == 0 {
			break
		}
		next := m.pageBuf[0]
		entry, ok := m.pbot.Lookup(next)
		if !ok {
			break
		}
		base := trace.BlockOfPageOffset(next, entry.Offset)
		out = refAddUnique(out, base, maxDegree)
		cur = hist.SampleWithTailInto(&m.tailScratch, phase, base, entry.PC)
		m.deltaBuf, err = m.deltaTargetsAppend(delta, cur, base, m.opt.SpatialDegree, m.deltaBuf[:0])
		if err != nil {
			m.recordHealth(err)
		}
		for _, b := range m.deltaBuf {
			if len(out) >= maxDegree {
				break
			}
			out = refAddUnique(out, b, maxDegree)
		}
		if len(out) >= maxDegree {
			break
		}
	}
	m.out = out
	return out
}

func refAddUnique(out []uint64, b uint64, maxDegree int) []uint64 {
	if len(out) >= maxDegree {
		return out
	}
	for _, x := range out {
		if x == b {
			return out
		}
	}
	return append(out, b)
}

// refMPGraph is MPGraph.Operate under OraclePhase around referenceCSTP.
type refMPGraph struct {
	refChain
	hist *models.History
}

func (m *refMPGraph) Operate(acc sim.LLCAccess) []uint64 {
	m.pbot.Update(acc.Block, acc.PC)
	m.hist.Push(acc.Block, acc.PC)
	if !m.hist.Warm() {
		return nil
	}
	defer m.ctx.Reset()
	return m.referenceCSTP(m.hist, int(acc.Phase), acc.Block)
}

// refPerCore is PerCoreMPGraph.Operate around referenceCSTP.
type refPerCore struct {
	refChain
	detectors []phasedet.Detector
	hists     []*models.History
	phases    []int
}

func (m *refPerCore) Operate(acc sim.LLCAccess) []uint64 {
	c := int(acc.Core) % len(m.hists)
	m.pbot.Update(acc.Block, acc.PC)
	m.hists[c].Push(acc.Block, acc.PC)
	if m.detectors[c].Observe(float64(acc.PC)) {
		m.phases[c] = (m.phases[c] + 1) % len(m.deltas)
	}
	if !m.hists[c].Warm() {
		return nil
	}
	defer m.ctx.Reset()
	return m.referenceCSTP(m.hists[c], m.phases[c], acc.Block)
}

// recSched is a recording ModelScheduler: it runs each call unbatched on its
// own arena, as a batch tier of one would, and keeps a key per (model,
// sample) pair since the last reset.
type recSched struct {
	ctx   *tensor.Ctx
	calls []string
}

func callKey(kind string, model any, s *models.Sample) string {
	return fmt.Sprintf("%s %p %v %v %d", kind, model, s.Blocks, s.PCs, s.Phase)
}

func (r *recSched) Join()  {}
func (r *recSched) Leave() {}

func (r *recSched) DeltaScores(m models.DeltaModel, s *models.Sample) []float64 {
	r.calls = append(r.calls, callKey("delta", m, s))
	r.ctx.Reset()
	return models.DeltaScoresWith(r.ctx, m, s)
}

func (r *recSched) TopPages(m models.PageModel, s *models.Sample, k int, dst []uint64) []uint64 {
	r.calls = append(r.calls, callKey("page", m, s))
	r.ctx.Reset()
	return models.TopPagesWith(r.ctx, m, s, k, dst)
}

// distinct returns calls without repeats, in first-seen order.
func distinct(calls []string) []string {
	var out []string
	for _, c := range calls {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// scriptDelta is a pure stub delta model: its top classes are +1 and +2,
// and its scores are NaN whenever the sample's newest block lies in nanPage.
type scriptDelta struct{ nanPage uint64 }

func (scriptDelta) DeltaLoss(*models.Sample) *tensor.Tensor { panic("inference only") }
func (scriptDelta) Params() []*tensor.Tensor                { return nil }
func (d *scriptDelta) DeltaScores(s *models.Sample) []float64 {
	out := make([]float64, 126)
	out[63], out[64] = 2, 1 // classes 63, 64 decode to deltas +1, +2
	if trace.PageOfBlock(s.CurrentBlock()) == d.nanPage {
		out[5] = math.NaN()
	}
	return out
}

// scriptPage is a pure stub page model: the page of the sample's newest
// block selects the prediction; pages it has no entry for predict fallback
// (none when fallback is 0).
type scriptPage struct {
	next     map[uint64]uint64
	fallback uint64
}

func (scriptPage) PageLoss(*models.Sample) *tensor.Tensor { panic("inference only") }
func (scriptPage) Params() []*tensor.Tensor               { return nil }
func (p *scriptPage) TopPages(s *models.Sample, k int) []uint64 {
	if n, ok := p.next[trace.PageOfBlock(s.CurrentBlock())]; ok {
		return []uint64{n}
	}
	if p.fallback != 0 {
		return []uint64{p.fallback}
	}
	return nil
}

// chainVocab is the page and PC universe of the random streams and the AMMA
// fixtures' vocabularies.
const (
	chainPage0 = uint64(1 << 14)
	chainPC0   = uint64(0x400000)
)

// randomStream is a seeded LLC access stream over 32 pages and 32 PCs with
// enough page locality and page returns that PBOT lookups both hit and (at
// the small PBOTSize the tests set) miss; the phase label flips every 37
// accesses and the core is random.
func randomStream(seed int64, n int) []sim.LLCAccess {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.LLCAccess, n)
	page, off := chainPage0, uint64(0)
	for i := range out {
		if rng.Intn(2) == 0 {
			off = (off + uint64(1+rng.Intn(3))) % 64
		} else {
			page, off = chainPage0+uint64(rng.Intn(32)), uint64(rng.Intn(64))
		}
		out[i] = sim.LLCAccess{
			Block: trace.BlockOfPageOffset(page, off),
			PC:    chainPC0 + 0x40*uint64(rng.Intn(32)),
			Phase: uint8((i / 37) % 2),
			Core:  uint8(rng.Intn(2)),
		}
	}
	return out
}

// chainSuite builds two phases of delta/page models over the chainVocab.
type chainSuite struct {
	name  string
	build func(tb testing.TB) ([]models.DeltaModel, []models.PageModel, int)
}

func ammaSuite(tb testing.TB, f32 bool) ([]models.DeltaModel, []models.PageModel, int) {
	tb.Helper()
	cfg := models.SmallConfig()
	// 32 pages and the OOV token fill the page head, so an untrained model
	// always names a page of the stream and chains run past step 1.
	cfg.PageVocab = 33
	var pcVals, pageVals []uint64
	for i := uint64(0); i < 32; i++ {
		pcVals = append(pcVals, chainPC0+0x40*i)
		pageVals = append(pageVals, chainPage0+i)
	}
	pcs := models.BuildVocab(pcVals, cfg.PCVocab)
	pages := models.BuildVocab(pageVals, cfg.PageVocab)
	var deltas []models.DeltaModel
	var pageModels []models.PageModel
	for p := 0; p < 2; p++ {
		var d models.DeltaModel = models.NewAMMADelta(cfg, pcs, 0, int64(2*p+1))
		var pg models.PageModel = models.NewAMMAPage(cfg, pages, pcs, 0, int64(2*p+2))
		if f32 {
			var err error
			if d, pg, err = models.ConvertSuiteF32(d, pg); err != nil {
				tb.Fatal(err)
			}
		}
		deltas = append(deltas, d)
		pageModels = append(pageModels, pg)
	}
	return deltas, pageModels, cfg.HistoryT
}

var chainSuites = []chainSuite{
	{"amma-f64", func(tb testing.TB) ([]models.DeltaModel, []models.PageModel, int) { return ammaSuite(tb, false) }},
	{"amma-f32", func(tb testing.TB) ([]models.DeltaModel, []models.PageModel, int) { return ammaSuite(tb, true) }},
	// Stubs over the same universe: phase 0 walks a three-page cycle and
	// falls off it into the PBOT's evicted range, phase 1 always names one
	// page; the delta model turns NaN on one page of the cycle.
	{"stub", func(testing.TB) ([]models.DeltaModel, []models.PageModel, int) {
		d := &scriptDelta{nanPage: chainPage0 + 2}
		cyc := &scriptPage{next: map[uint64]uint64{
			chainPage0: chainPage0 + 1, chainPage0 + 1: chainPage0 + 2, chainPage0 + 2: chainPage0,
			chainPage0 + 3: chainPage0 + 4, chainPage0 + 4: chainPage0 + 20,
		}, fallback: chainPage0 + 1}
		one := &scriptPage{fallback: chainPage0 + 5}
		return []models.DeltaModel{d, d}, []models.PageModel{cyc, one}, 4
	}},
}

// operator is what the oracle drives: a controller under test or a reference.
type operator interface {
	Operate(sim.LLCAccess) []uint64
	Health() error
}

func healthString(o operator) string {
	if err := o.Health(); err != nil {
		return err.Error()
	}
	return ""
}

// statsSince returns the counters' movement from before to after.
func statsSince(after, before ChainStats) ChainStats {
	return ChainStats{
		Operates:    after.Operates - before.Operates,
		ModelCalls:  after.ModelCalls - before.ModelCalls,
		ChainSteps:  after.ChainSteps - before.ChainSteps,
		Revisits:    after.Revisits - before.Revisits,
		PBOTMisses:  after.PBOTMisses - before.PBOTMisses,
		BudgetStops: after.BudgetStops - before.BudgetStops,
	}
}

// checkEq11 is the Eq. 11 property on one Operate's output: the issued
// degree is at most Ds·(Dt+1), each temporal step taken adds at most Ds+1
// blocks to step 0's Ds, and no block is issued twice.
func checkEq11(t *testing.T, opt Options, out []uint64, steps int) {
	t.Helper()
	if len(out) > opt.MaxTotalDegree() {
		t.Fatalf("issued %d > Ds*(Dt+1) = %d", len(out), opt.MaxTotalDegree())
	}
	if steps > opt.TemporalDegree {
		t.Fatalf("%d chain steps at Dt=%d", steps, opt.TemporalDegree)
	}
	if bound := opt.SpatialDegree + steps*(opt.SpatialDegree+1); len(out) > bound {
		t.Fatalf("issued %d after %d chain steps, bound Ds+steps*(Ds+1) = %d", len(out), steps, bound)
	}
	for i, b := range out {
		if slices.Contains(out[:i], b) {
			t.Fatalf("block %d issued twice: %v", b, out)
		}
	}
}

// runOracle drives subject and ref over stream and requires equal outputs
// and health on every access. When both sit behind recording schedulers it
// also requires that subject evaluated no (model, sample) pair twice within
// an Operate and evaluated exactly ref's distinct pairs, in ref's order, and
// that the ModelCalls counter agrees with the recording. stats reports the
// subject's counters; every Operate is held to Eq. 11.
func runOracle(t *testing.T, opt Options, stream []sim.LLCAccess, subject, ref operator, stats func() ChainStats, subjRec, refRec *recSched) {
	t.Helper()
	for i, acc := range stream {
		before := stats()
		if subjRec != nil {
			subjRec.calls, refRec.calls = subjRec.calls[:0], refRec.calls[:0]
		}
		got, want := subject.Operate(acc), ref.Operate(acc)
		if !slices.Equal(got, want) {
			t.Fatalf("access %d: chain issued %v, reference %v", i, got, want)
		}
		if g, w := healthString(subject), healthString(ref); g != w {
			t.Fatalf("access %d: health %q, reference %q", i, g, w)
		}
		moved := statsSince(stats(), before)
		checkEq11(t, opt, got, moved.ChainSteps)
		if subjRec == nil {
			continue
		}
		if want := distinct(refRec.calls); !slices.Equal(subjRec.calls, want) {
			t.Fatalf("access %d: chain evaluated\n%v\nreference's distinct pairs are\n%v", i, subjRec.calls, want)
		}
		if moved.ModelCalls != len(subjRec.calls) {
			t.Fatalf("access %d: ModelCalls moved by %d, scheduler saw %d calls", i, moved.ModelCalls, len(subjRec.calls))
		}
	}
}

// forEachKernelPath runs f on the native kernels and on the portable
// fallback (the same thing on a host without AVX-512F).
func forEachKernelPath(t *testing.T, f func(t *testing.T, portable bool)) {
	t.Run("native", func(t *testing.T) { f(t, false) })
	t.Run("portable", func(t *testing.T) {
		defer tensor.ForcePortableKernels()()
		f(t, true)
	})
}

// TestCSTPMatchesReference is the differential oracle: the chain against
// referenceCSTP on seeded random streams, Ds ∈ {1,2,3} × Dt ∈ {0…4}, on f64
// and f32 AMMA suites and the cycle/NaN stubs, in-process and through a
// recording ModelScheduler, for both controllers.
func TestCSTPMatchesReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T, portable bool) {
		for _, suite := range chainSuites {
			var total ChainStats
			deltas, pages, historyT := suite.build(t)
			n := 48
			if suite.name == "stub" {
				n = 400
			}
			for ds := 1; ds <= 3; ds++ {
				for dt := 0; dt <= 4; dt++ {
					// The scalar kernels run ~20x slower under the race
					// detector (a minute for this grid): there the portable
					// pass keeps the paper's setting and the deepest chain.
					if portable && raceDetectorEnabled && suite.name != "stub" && !(ds == 2 && (dt == 2 || dt == 4)) {
						continue
					}
					stream := randomStream(int64(100*ds+dt), n)
					var inProcess ChainStats
					for _, sched := range []bool{false, true} {
						opt := DefaultOptions()
						opt.SpatialDegree, opt.TemporalDegree = ds, dt
						opt.PBOTSize = 24
						opt.OraclePhase = true
						refOpt := opt
						var subjRec, refRec *recSched
						if sched {
							subjRec, refRec = &recSched{ctx: tensor.NewCtx()}, &recSched{ctx: tensor.NewCtx()}
							opt.Scheduler, refOpt.Scheduler = subjRec, refRec
						}

						m, err := New(opt, historyT, nil, deltas, pages)
						if err != nil {
							t.Fatal(err)
						}
						ref := &refMPGraph{refChain: newRefChain(refOpt, deltas, pages), hist: models.NewHistory(historyT)}
						runOracle(t, opt, stream, m, ref, func() ChainStats { return m.ChainStats }, subjRec, refRec)
						if !sched {
							inProcess = m.ChainStats
						} else if m.ChainStats != inProcess {
							t.Fatalf("%s Ds=%d Dt=%d: counters through the scheduler %+v, in-process %+v", suite.name, ds, dt, m.ChainStats, inProcess)
						}

						mk := func() phasedet.Detector { return &everyNDetector{n: 23} }
						pc, err := NewPerCore(opt, historyT, 2, mk, deltas, pages)
						if err != nil {
							t.Fatal(err)
						}
						pcRef := &refPerCore{refChain: newRefChain(refOpt, deltas, pages), phases: make([]int, 2)}
						for c := 0; c < 2; c++ {
							pcRef.detectors = append(pcRef.detectors, mk())
							pcRef.hists = append(pcRef.hists, models.NewHistory(historyT))
						}
						runOracle(t, opt, stream, pc, pcRef, func() ChainStats { return pc.ChainStats }, subjRec, refRec)

						for _, s := range []ChainStats{m.ChainStats, pc.ChainStats} {
							total.ChainSteps += s.ChainSteps
							total.Revisits += s.Revisits
							total.PBOTMisses += s.PBOTMisses
							total.BudgetStops += s.BudgetStops
						}
					}
				}
			}
			// The streams must reach every way a chain can end, or the
			// oracle above proved nothing about it.
			if total.ChainSteps == 0 || total.Revisits == 0 || total.PBOTMisses == 0 || total.BudgetStops == 0 {
				t.Fatalf("%s: random streams left a chain ending unexercised: %+v", suite.name, total)
			}
		}
	})
}

// stubChain builds an MPGraph (through a recording scheduler) and its
// reference over scriptPage/scriptDelta stubs, primes the PBOT with one
// access per primed block, and warms the history inside page 100.
func stubChain(t *testing.T, ds, dt int, page *scriptPage, delta *scriptDelta, primed ...uint64) (*MPGraph, *refMPGraph, *recSched, *recSched) {
	t.Helper()
	opt := DefaultOptions()
	opt.SpatialDegree, opt.TemporalDegree = ds, dt
	opt.OraclePhase = true
	refOpt := opt
	rec, refRec := &recSched{ctx: tensor.NewCtx()}, &recSched{ctx: tensor.NewCtx()}
	opt.Scheduler, refOpt.Scheduler = rec, refRec
	deltas, pages := []models.DeltaModel{delta}, []models.PageModel{page}
	m, err := New(opt, 4, nil, deltas, pages)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refMPGraph{refChain: newRefChain(refOpt, deltas, pages), hist: models.NewHistory(4)}
	var stream []sim.LLCAccess
	for i, b := range primed {
		stream = append(stream, sim.LLCAccess{Block: b, PC: 0x10 + uint64(i)})
	}
	for i := uint64(0); i < 4; i++ {
		stream = append(stream, sim.LLCAccess{Block: trace.BlockOfPageOffset(100, 8*i), PC: 1})
	}
	runOracle(t, opt, stream, m, ref, func() ChainStats { return m.ChainStats }, rec, refRec)
	return m, ref, rec, refRec
}

// TestCSTPStopsAtRevisit pins, on crafted chains, the exact model calls of
// one Operate and which counter the chain's end lands in: a period-1 cycle,
// a period-2 cycle (A→B→A), a PBOT miss mid-chain, and a NaN on the tail the
// chain comes back to. Each is also held to the reference by runOracle.
func TestCSTPStopsAtRevisit(t *testing.T) {
	const A, B, Z = 500, 600, 999 // Z is never accessed, so never in the PBOT
	baseA, baseB := trace.BlockOfPageOffset(A, 3), trace.BlockOfPageOffset(B, 40)
	last := sim.LLCAccess{Block: trace.BlockOfPageOffset(100, 33), PC: 1}
	cases := []struct {
		name          string
		ds, dt        int
		page          *scriptPage
		nanPage       uint64
		calls, refs   int // model calls of the last Operate: chain, reference
		want          ChainStats
		issued        int
		wantHealthNaN bool
	}{
		{name: "period-1", ds: 2, dt: 2, page: &scriptPage{fallback: A},
			calls: 4, refs: 5, want: ChainStats{ChainSteps: 1, Revisits: 1}, issued: 5},
		{name: "period-1 deep", ds: 2, dt: 4, page: &scriptPage{fallback: A},
			calls: 4, refs: 9, want: ChainStats{ChainSteps: 1, Revisits: 1}, issued: 5},
		{name: "period-2", ds: 2, dt: 4, page: &scriptPage{next: map[uint64]uint64{100: A, A: B, B: A}},
			calls: 6, refs: 9, want: ChainStats{ChainSteps: 2, Revisits: 1}, issued: 8},
		{name: "period-2 budget first", ds: 2, dt: 3, page: &scriptPage{next: map[uint64]uint64{100: A, A: B, B: A}},
			calls: 5, refs: 5, want: ChainStats{ChainSteps: 2, BudgetStops: 1}, issued: 8},
		{name: "pbot miss mid-chain", ds: 2, dt: 4, page: &scriptPage{next: map[uint64]uint64{100: A, A: Z}},
			calls: 4, refs: 4, want: ChainStats{ChainSteps: 1, PBOTMisses: 1}, issued: 5},
		{name: "nan on revisited tail", ds: 2, dt: 4, page: &scriptPage{fallback: A}, nanPage: A,
			calls: 4, refs: 9, want: ChainStats{ChainSteps: 1, Revisits: 1}, issued: 3, wantHealthNaN: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, ref, rec, refRec := stubChain(t, tc.ds, tc.dt, tc.page, &scriptDelta{nanPage: tc.nanPage}, baseA, baseB)
			before := m.ChainStats
			rec.calls, refRec.calls = rec.calls[:0], refRec.calls[:0]
			out := slices.Clone(m.Operate(last))
			if want := ref.Operate(last); !slices.Equal(out, want) {
				t.Fatalf("chain issued %v, reference %v", out, want)
			}
			if len(rec.calls) != tc.calls || len(refRec.calls) != tc.refs {
				t.Fatalf("model calls: chain %d (want %d), reference %d (want %d)", len(rec.calls), tc.calls, len(refRec.calls), tc.refs)
			}
			if len(distinct(rec.calls)) != len(rec.calls) {
				t.Fatalf("a (model, sample) pair was evaluated twice: %v", rec.calls)
			}
			tc.want.Operates, tc.want.ModelCalls = 1, tc.calls
			if got := statsSince(m.ChainStats, before); got != tc.want {
				t.Fatalf("counters moved by %+v, want %+v", got, tc.want)
			}
			if len(out) != tc.issued {
				t.Fatalf("issued %v, want %d blocks", out, tc.issued)
			}
			if (m.Health() != nil) != tc.wantHealthNaN || healthString(m) != healthString(ref) {
				t.Fatalf("health %v, reference %v, want defect %v", m.Health(), ref.Health(), tc.wantHealthNaN)
			}
		})
	}
}

// TestEq11OnRandomStreams is the Eq. 11 bound as a property of the
// controllers alone (no reference beside them): on longer random streams,
// with the default PBOT, every Operate of either controller issues at most
// Ds·(Dt+1) blocks, at most Ds+1 per chain step taken, and none twice.
func TestEq11OnRandomStreams(t *testing.T) {
	for _, suite := range chainSuites[1:] { // amma-f32 and the stubs
		deltas, pages, historyT := suite.build(t)
		for ds := 1; ds <= 3; ds++ {
			for dt := 0; dt <= 4; dt++ {
				opt := DefaultOptions()
				opt.SpatialDegree, opt.TemporalDegree = ds, dt
				opt.OraclePhase = true
				m, err := New(opt, historyT, nil, deltas, pages)
				if err != nil {
					t.Fatal(err)
				}
				pc, err := NewPerCore(opt, historyT, 2, func() phasedet.Detector { return &everyNDetector{n: 23} }, deltas, pages)
				if err != nil {
					t.Fatal(err)
				}
				for _, acc := range randomStream(int64(7000+100*ds+dt), 250) {
					before := m.ChainStats
					out := m.Operate(acc)
					checkEq11(t, opt, out, statsSince(m.ChainStats, before).ChainSteps)
					before = pc.ChainStats
					out = pc.Operate(acc)
					checkEq11(t, opt, out, statsSince(pc.ChainStats, before).ChainSteps)
				}
			}
		}
	}
}

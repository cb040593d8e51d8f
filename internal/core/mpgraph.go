package core

import (
	"fmt"

	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// Options configures the MPGraph prefetcher.
type Options struct {
	// SpatialDegree Ds: deltas issued per chain step (paper: 2).
	SpatialDegree int
	// TemporalDegree Dt: page-chain length (paper: 2). Total degree obeys
	// Eq. 11: Ds+1 <= Dp <= Ds*(Dt+1).
	TemporalDegree int
	// PBOTSize bounds the page base-offset table.
	PBOTSize int
	// ProbationWindow is how many accesses the controller scores the
	// candidate phase predictors after a detected transition before
	// switching (Section 4.4.1).
	ProbationWindow int
	// InferEvery throttles inference to every k-th LLC access.
	InferEvery int
	// LatencyCycles is the model inference latency reported to the
	// simulator (Fig. 14 studies 200 cycles).
	LatencyCycles uint64
	// OraclePhase bypasses the detector and uses the trace's ground-truth
	// phase label (ablation only).
	OraclePhase bool
	// Scheduler, when non-nil, routes every model call through an external
	// batching tier (one session per MPGraph instance — see
	// prefetch.BatchScheduler).
	Scheduler ModelScheduler
}

// ModelScheduler is the structural seam to an external batched-inference
// tier. core deliberately does not import the package providing it
// (prefetch.BatchSession satisfies this); calls block until the scheduler
// runs the fused round containing them, and returned slices stay valid until
// the session's next call.
type ModelScheduler interface {
	// Join registers the session with the scheduler's flush watermark;
	// Leave unregisters it so waiters never stall on a finished session.
	Join()
	Leave()
	// DeltaScores returns the delta model's raw score vector for s.
	DeltaScores(m models.DeltaModel, s *models.Sample) []float64
	// TopPages appends the page model's top-k pages for s to dst.
	TopPages(m models.PageModel, s *models.Sample, k int, dst []uint64) []uint64
}

// DefaultOptions mirrors Section 5.4.1: Ds=2, Dt=2, total degree 6.
func DefaultOptions() Options {
	return Options{
		SpatialDegree:   2,
		TemporalDegree:  2,
		PBOTSize:        4096,
		ProbationWindow: 48,
		InferEvery:      1,
	}
}

// MaxTotalDegree is the Eq. 11 upper bound Ds*(Dt+1).
func (o Options) MaxTotalDegree() int { return o.SpatialDegree * (o.TemporalDegree + 1) }

// MPGraph is the prefetcher: a phase detector feeding a controller that
// switches between phase-specific delta/page predictors and issues chain
// spatio-temporal prefetches.
type MPGraph struct {
	opt      Options
	historyT int

	detector phasedet.Detector
	deltas   []models.DeltaModel // one per phase
	pages    []models.PageModel

	hist  *models.History
	pbot  *PBOT
	phase int
	tick  int

	// Inference runs on a per-instance arena plus reusable scratch buffers,
	// so a steady-state Operate call allocates nothing.
	ctx         *tensor.Ctx
	sampScratch models.Sample
	tailScratch models.Sample
	out         []uint64
	deltaBuf    []uint64
	pageBuf     []uint64

	// Probation state: after a detected transition all candidate phases'
	// recent predictions are scored against arriving demand accesses.
	probing     bool
	probeLeft   int
	probeScores []int
	probeSets   []map[uint64]bool

	// Stats for introspection.
	Transitions int
	Switches    int

	// health holds the first model defect detected by score screening.
	health error
}

// New builds an MPGraph prefetcher from per-phase trained predictors and a
// phase-transition detector. len(deltas) must equal len(pages) and match the
// framework's phase count.
func New(opt Options, historyT int, detector phasedet.Detector, deltas []models.DeltaModel, pages []models.PageModel) (*MPGraph, error) {
	if len(deltas) == 0 || len(deltas) != len(pages) {
		return nil, fmt.Errorf("core: need matching per-phase delta/page models, got %d/%d", len(deltas), len(pages))
	}
	if opt.SpatialDegree <= 0 || opt.TemporalDegree < 0 {
		return nil, fmt.Errorf("core: bad degrees Ds=%d Dt=%d", opt.SpatialDegree, opt.TemporalDegree)
	}
	if !opt.OraclePhase && detector == nil {
		return nil, fmt.Errorf("core: detector required unless OraclePhase")
	}
	if opt.InferEvery <= 0 {
		opt.InferEvery = 1
	}
	if opt.ProbationWindow <= 0 {
		opt.ProbationWindow = 48
	}
	m := &MPGraph{
		opt:      opt,
		historyT: historyT,
		detector: detector,
		deltas:   deltas,
		pages:    pages,
		hist:     models.NewHistory(historyT),
		pbot:     NewPBOT(opt.PBOTSize),
		ctx:      tensor.NewCtx(),
	}
	return m, nil
}

// Name implements sim.Prefetcher.
func (m *MPGraph) Name() string { return "mpgraph" }

// InferenceLatencyCycles implements sim.InferenceLatency.
func (m *MPGraph) InferenceLatencyCycles() uint64 { return m.opt.LatencyCycles }

// Phase exposes the currently selected phase (tests, case studies).
func (m *MPGraph) Phase() int { return m.phase }

// Health implements sim.HealthReporter: nil until score screening detects a
// non-finite model output, then the first such defect.
func (m *MPGraph) Health() error { return m.health }

// JoinBatch registers this instance's scheduler session with the batch flush
// watermark (no-op without a scheduler).
func (m *MPGraph) JoinBatch() {
	if m.opt.Scheduler != nil {
		m.opt.Scheduler.Join()
	}
}

// LeaveBatch unregisters the scheduler session (no-op without a scheduler).
func (m *MPGraph) LeaveBatch() {
	if m.opt.Scheduler != nil {
		m.opt.Scheduler.Leave()
	}
}

// deltaTargetsAppend is the one delta decode cstp and probation use: through
// the batch scheduler when one is attached, the in-process path otherwise.
// Either way the scores decode via models.AppendDeltaTargets on m.ctx.
func (m *MPGraph) deltaTargetsAppend(dm models.DeltaModel, s *models.Sample, base uint64, k int, dst []uint64) ([]uint64, error) {
	if m.opt.Scheduler != nil {
		return models.AppendDeltaTargets(m.ctx, m.opt.Scheduler.DeltaScores(dm, s), base, k, dst)
	}
	return topDeltaBlocksAppend(m.ctx, dm, s, base, k, dst)
}

// topPages is the page-model counterpart of deltaTargetsAppend.
func (m *MPGraph) topPages(pm models.PageModel, s *models.Sample, k int, dst []uint64) []uint64 {
	if m.opt.Scheduler != nil {
		return m.opt.Scheduler.TopPages(pm, s, k, dst)
	}
	return models.TopPagesWith(m.ctx, pm, s, k, dst)
}

func (m *MPGraph) recordHealth(err error) {
	if m.health == nil {
		m.health = err
	}
}

// Operate implements sim.Prefetcher: the CSTP strategy of Fig. 8.
func (m *MPGraph) Operate(acc sim.LLCAccess) []uint64 {
	// Probation scoring: does any candidate phase predict this access?
	if m.probing {
		m.scoreProbe(acc.Block)
	}

	m.pbot.Update(acc.Block, acc.PC)
	m.hist.Push(acc.Block, acc.PC)

	// Phase tracking.
	if m.opt.OraclePhase {
		if int(acc.Phase) != m.phase {
			m.phase = int(acc.Phase)
			m.Transitions++
		}
	} else if m.detector.Observe(float64(acc.PC)) {
		m.Transitions++
		m.beginProbation()
	}

	m.tick++
	if !m.hist.Warm() || m.tick%m.opt.InferEvery != 0 {
		return nil
	}

	defer m.ctx.Reset()
	if m.probing {
		m.feedProbe()
	}
	return m.cstp(acc.Block)
}

// cstp performs chain spatio-temporal prefetching from the current block.
func (m *MPGraph) cstp(block uint64) []uint64 {
	maxDegree := m.opt.MaxTotalDegree()
	out := m.out[:0]
	sample := m.hist.SampleInto(&m.sampScratch, m.phase)
	delta := m.deltas[m.phase%len(m.deltas)]
	page := m.pages[m.phase%len(m.pages)]

	// Step 0: spatial deltas at the current block.
	var err error
	m.deltaBuf, err = m.deltaTargetsAppend(delta, sample, block, m.opt.SpatialDegree, m.deltaBuf[:0])
	if err != nil {
		m.recordHealth(err)
	}
	for _, b := range m.deltaBuf {
		out = addUnique(out, b, maxDegree)
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
		out = addUnique(out, base, maxDegree)
		cur = m.hist.SampleWithTailInto(&m.tailScratch, m.phase, base, entry.PC)
		m.deltaBuf, err = m.deltaTargetsAppend(delta, cur, base, m.opt.SpatialDegree, m.deltaBuf[:0])
		if err != nil {
			m.recordHealth(err)
		}
		for _, b := range m.deltaBuf {
			if len(out) >= maxDegree {
				break
			}
			out = addUnique(out, b, maxDegree)
		}
		if len(out) >= maxDegree {
			break
		}
	}
	m.out = out
	return out
}

// addUnique appends b to out unless it is already present or the degree
// budget is spent — a linear scan, because maxDegree is at most Ds·(Dt+1)
// (6 at paper settings).
func addUnique(out []uint64, b uint64, maxDegree int) []uint64 {
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

// beginProbation activates all phase predictors in parallel for scoring
// (Section 4.4.1). The score slice and the per-phase prediction sets live on
// the instance — built at the first transition, sized for the most a window
// can insert, and cleared at every later one — so a transition allocates
// nothing in steady state.
func (m *MPGraph) beginProbation() {
	m.probing = true
	m.probeLeft = m.opt.ProbationWindow
	if m.probeSets == nil {
		m.probeScores = make([]int, len(m.deltas))
		m.probeSets = make([]map[uint64]bool, len(m.deltas))
		for i := range m.probeSets {
			m.probeSets[i] = make(map[uint64]bool, m.opt.ProbationWindow*m.opt.SpatialDegree)
		}
	}
	clear(m.probeScores)
	for _, set := range m.probeSets {
		clear(set)
	}
}

// feedProbe lets every candidate phase predict from the current history so
// later demand accesses can score them.
func (m *MPGraph) feedProbe() {
	if !m.hist.Warm() {
		return
	}
	base := m.hist.CurrentBlock()
	for p, dm := range m.deltas {
		s := m.hist.SampleInto(&m.sampScratch, p)
		var err error
		m.deltaBuf, err = m.deltaTargetsAppend(dm, s, base, m.opt.SpatialDegree, m.deltaBuf[:0])
		if err != nil {
			m.recordHealth(err)
		}
		for _, b := range m.deltaBuf {
			m.probeSets[p][b] = true
		}
	}
}

// scoreProbe credits phases whose predictions cover the arriving access and
// commits the winner when the window closes.
func (m *MPGraph) scoreProbe(block uint64) {
	for p := range m.probeSets {
		if m.probeSets[p][block] {
			m.probeScores[p]++
		}
	}
	m.probeLeft--
	if m.probeLeft > 0 {
		return
	}
	best := 0
	for p, s := range m.probeScores {
		if s > m.probeScores[best] {
			best = p
		}
	}
	if best != m.phase {
		m.Switches++
	}
	m.phase = best
	m.probing = false
}

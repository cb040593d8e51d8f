package core

import (
	"fmt"

	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/sim"
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
	return Options{SpatialDegree: 2, TemporalDegree: 2, PBOTSize: 4096}
}

// probationWindow is how many accesses the controller scores the candidate
// phase predictors after a detected transition before switching (Section
// 4.4.1).
const probationWindow = 48

// MaxTotalDegree is the Eq. 11 upper bound Ds*(Dt+1).
func (o Options) MaxTotalDegree() int { return o.SpatialDegree * (o.TemporalDegree + 1) }

// MPGraph is the prefetcher: a phase detector feeding a controller that
// switches between phase-specific delta/page predictors and issues chain
// spatio-temporal prefetches.
type MPGraph struct {
	chain

	detector phasedet.Detector
	hist     *models.History
	phase    int

	// Probation state: after a detected transition all candidate phases'
	// recent predictions are scored against arriving demand accesses.
	probing     bool
	probeLeft   int
	probeScores []int
	probeSets   []map[uint64]bool

	// Stats for introspection (ChainStats, promoted from chain, sits beside
	// them).
	Transitions int
	Switches    int
}

// New builds an MPGraph prefetcher from per-phase trained predictors and a
// phase-transition detector. len(deltas) must equal len(pages) and match the
// framework's phase count.
func New(opt Options, historyT int, detector phasedet.Detector, deltas []models.DeltaModel, pages []models.PageModel) (*MPGraph, error) {
	c, err := newChain(opt, deltas, pages)
	if err != nil {
		return nil, err
	}
	if !opt.OraclePhase && detector == nil {
		return nil, fmt.Errorf("core: detector required unless OraclePhase")
	}
	return &MPGraph{chain: c, detector: detector, hist: models.NewHistory(historyT)}, nil
}

// Name implements sim.Prefetcher.
func (m *MPGraph) Name() string { return "mpgraph" }

// Phase exposes the currently selected phase (tests, case studies).
func (m *MPGraph) Phase() int { return m.phase }

// Operate implements sim.Prefetcher: the CSTP strategy of Fig. 8.
func (m *MPGraph) Operate(acc sim.LLCAccess) []uint64 {
	// Probation scoring: does any candidate phase predict this access?
	if m.probing {
		m.scoreProbe(acc.Block)
	}

	m.Operates++
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

	if !m.hist.Warm() {
		return nil
	}

	defer m.ctx.Reset()
	if m.probing {
		m.feedProbe()
	}
	return m.cstp(m.hist, m.phase, acc.Block)
}

// beginProbation activates all phase predictors in parallel for scoring
// (Section 4.4.1). The score slice and the per-phase prediction sets live on
// the instance — built at the first transition, sized for the most a window
// can insert, and cleared at every later one — so a transition allocates
// nothing in steady state.
func (m *MPGraph) beginProbation() {
	m.probing = true
	m.probeLeft = probationWindow
	if m.probeSets == nil {
		m.probeScores = make([]int, len(m.deltas))
		m.probeSets = make([]map[uint64]bool, len(m.deltas))
		for i := range m.probeSets {
			m.probeSets[i] = make(map[uint64]bool, probationWindow*m.opt.SpatialDegree)
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
		m.deltaBuf = m.deltaTargets(dm, s, base, m.deltaBuf[:0])
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

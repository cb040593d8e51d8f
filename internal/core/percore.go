package core

import (
	"fmt"

	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// PerCoreMPGraph implements the extension sketched in the paper's
// conclusion: "graph frameworks using asynchronous execution allow processes
// to go beyond the current phase without a barrier ... the phase transition
// detector in MPGraph can be extended to each thread". Each core gets its
// own phase detector and history window, so cores may run different
// phase-specific predictors simultaneously; the PBOT stays shared because
// the LLC (and therefore the page state) is shared.
type PerCoreMPGraph struct {
	opt      Options
	historyT int

	detectors []phasedet.Detector
	deltas    []models.DeltaModel
	pages     []models.PageModel

	hists  []*models.History
	phases []int
	ticks  []int
	pbot   *PBOT

	// Inference fast path (see MPGraph): one arena per instance — Operate
	// is called serially by the engine regardless of which core the access
	// came from, so the scratch buffers are shared across cores.
	ctx         *tensor.Ctx
	sampScratch models.Sample
	tailScratch models.Sample
	out         []uint64
	deltaBuf    []uint64
	pageBuf     []uint64

	// Transitions counts detector firings summed over cores.
	Transitions int

	// health holds the first model defect detected by score screening.
	health error
}

// NewPerCore builds the per-core variant. makeDetector is called once per
// core so each core owns independent detector state.
func NewPerCore(opt Options, historyT, cores int, makeDetector func() phasedet.Detector,
	deltas []models.DeltaModel, pages []models.PageModel) (*PerCoreMPGraph, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("core: cores must be positive")
	}
	if len(deltas) == 0 || len(deltas) != len(pages) {
		return nil, fmt.Errorf("core: need matching per-phase delta/page models, got %d/%d", len(deltas), len(pages))
	}
	if opt.SpatialDegree <= 0 || opt.TemporalDegree < 0 {
		return nil, fmt.Errorf("core: bad degrees Ds=%d Dt=%d", opt.SpatialDegree, opt.TemporalDegree)
	}
	if makeDetector == nil {
		return nil, fmt.Errorf("core: detector factory required")
	}
	if opt.InferEvery <= 0 {
		opt.InferEvery = 1
	}
	m := &PerCoreMPGraph{
		opt:      opt,
		historyT: historyT,
		deltas:   deltas,
		pages:    pages,
		pbot:     NewPBOT(opt.PBOTSize),
		phases:   make([]int, cores),
		ticks:    make([]int, cores),
		ctx:      tensor.NewCtx(),
	}
	for c := 0; c < cores; c++ {
		m.detectors = append(m.detectors, makeDetector())
		m.hists = append(m.hists, models.NewHistory(historyT))
	}
	return m, nil
}

// Name implements sim.Prefetcher.
func (m *PerCoreMPGraph) Name() string { return "mpgraph-percore" }

// InferenceLatencyCycles implements sim.InferenceLatency.
func (m *PerCoreMPGraph) InferenceLatencyCycles() uint64 { return m.opt.LatencyCycles }

// CorePhase exposes core c's current phase (tests).
func (m *PerCoreMPGraph) CorePhase(c int) int { return m.phases[c%len(m.phases)] }

// Health implements sim.HealthReporter: nil until score screening detects a
// non-finite model output, then the first such defect.
func (m *PerCoreMPGraph) Health() error { return m.health }

func (m *PerCoreMPGraph) recordHealth(err error) {
	if m.health == nil {
		m.health = err
	}
}

// Operate implements sim.Prefetcher: per-core phase tracking with the same
// CSTP strategy per core stream.
func (m *PerCoreMPGraph) Operate(acc sim.LLCAccess) []uint64 {
	c := int(acc.Core) % len(m.hists)
	m.pbot.Update(acc.Block, acc.PC)
	m.hists[c].Push(acc.Block, acc.PC)

	if m.detectors[c].Observe(float64(acc.PC)) {
		m.Transitions++
		// Asynchronous phase advance: without a barrier to resynchronise,
		// the core cycles to the next phase model.
		m.phases[c] = (m.phases[c] + 1) % len(m.deltas)
	}

	m.ticks[c]++
	if !m.hists[c].Warm() || m.ticks[c]%m.opt.InferEvery != 0 {
		return nil
	}
	return m.cstp(c, acc.Block)
}

func (m *PerCoreMPGraph) cstp(c int, block uint64) []uint64 {
	phase := m.phases[c]
	hist := m.hists[c]
	maxDegree := m.opt.MaxTotalDegree()
	out := m.out[:0]
	delta := m.deltas[phase%len(m.deltas)]
	page := m.pages[phase%len(m.pages)]
	defer m.ctx.Reset()
	sample := hist.SampleInto(&m.sampScratch, phase)
	var err error
	m.deltaBuf, err = topDeltaBlocksAppend(m.ctx, delta, sample, block, m.opt.SpatialDegree, m.deltaBuf[:0])
	if err != nil {
		m.recordHealth(err)
	}
	for _, b := range m.deltaBuf {
		out = addUnique(out, b, maxDegree)
	}
	cur := sample
	for step := 0; step < m.opt.TemporalDegree; step++ {
		m.pageBuf = models.TopPagesWith(m.ctx, page, cur, 1, m.pageBuf[:0])
		if len(m.pageBuf) == 0 {
			break
		}
		entry, ok := m.pbot.Lookup(m.pageBuf[0])
		if !ok {
			break
		}
		base := trace.BlockOfPageOffset(m.pageBuf[0], entry.Offset)
		out = addUnique(out, base, maxDegree)
		cur = hist.SampleWithTailInto(&m.tailScratch, phase, base, entry.PC)
		m.deltaBuf, err = topDeltaBlocksAppend(m.ctx, delta, cur, base, m.opt.SpatialDegree, m.deltaBuf[:0])
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

// topDeltaBlocksAppend is the shared top-k delta decode (also used by
// MPGraph): it appends the decoded block targets to dst, drawing every
// intermediate from the ctx arena when one is supplied. Scores are screened
// for non-finite values first; on a screening failure dst is returned
// unmodified alongside the error so callers can record the health defect
// instead of issuing prefetches ranked by NaN.
func topDeltaBlocksAppend(c *tensor.Ctx, model models.DeltaModel, s *models.Sample, base uint64, k int, dst []uint64) ([]uint64, error) {
	return models.AppendDeltaTargets(c, models.DeltaScoresWith(c, model, s), base, k, dst)
}

package core

import (
	"fmt"

	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/sim"
)

// PerCoreMPGraph implements the extension sketched in the paper's
// conclusion: "graph frameworks using asynchronous execution allow processes
// to go beyond the current phase without a barrier ... the phase transition
// detector in MPGraph can be extended to each thread". Each core gets its
// own phase detector and history window, so cores may run different
// phase-specific predictors simultaneously; the PBOT stays shared because
// the LLC (and therefore the page state) is shared.
type PerCoreMPGraph struct {
	// One chain per instance — Operate is called serially by the engine
	// regardless of which core the access came from, so the arena and scratch
	// buffers are shared across cores.
	chain

	detectors []phasedet.Detector
	hists     []*models.History
	phases    []int
	ticks     []int

	// Transitions counts detector firings summed over cores.
	Transitions int
}

// NewPerCore builds the per-core variant. makeDetector is called once per
// core so each core owns independent detector state.
func NewPerCore(opt Options, historyT, cores int, makeDetector func() phasedet.Detector,
	deltas []models.DeltaModel, pages []models.PageModel) (*PerCoreMPGraph, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("core: cores must be positive")
	}
	c, err := newChain(opt, deltas, pages)
	if err != nil {
		return nil, err
	}
	if makeDetector == nil {
		return nil, fmt.Errorf("core: detector factory required")
	}
	m := &PerCoreMPGraph{chain: c, phases: make([]int, cores), ticks: make([]int, cores)}
	for i := 0; i < cores; i++ {
		m.detectors = append(m.detectors, makeDetector())
		m.hists = append(m.hists, models.NewHistory(historyT))
	}
	return m, nil
}

// Name implements sim.Prefetcher.
func (m *PerCoreMPGraph) Name() string { return "mpgraph-percore" }

// CorePhase exposes core c's current phase (tests).
func (m *PerCoreMPGraph) CorePhase(c int) int { return m.phases[c%len(m.phases)] }

// Operate implements sim.Prefetcher: per-core phase tracking with the same
// CSTP strategy per core stream.
func (m *PerCoreMPGraph) Operate(acc sim.LLCAccess) []uint64 {
	c := int(acc.Core) % len(m.hists)
	m.Operates++
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
	defer m.ctx.Reset()
	return m.cstp(m.hists[c], m.phases[c], acc.Block)
}

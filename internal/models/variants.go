package models

import (
	"mpgraph/internal/invariant"
	"mpgraph/internal/tensor"
)

// PhaseSpecificDelta is AMMA-PS for spatial prediction: one delta model per
// phase, dispatched by the sample's phase label (at prefetch time the phase
// comes from the transition detector via the controller).
type PhaseSpecificDelta struct {
	Models []DeltaModel
}

// NewPhaseSpecificDelta builds one AMMA delta model per phase.
func NewPhaseSpecificDelta(cfg Config, pcs *Vocab, phases int, seed int64) *PhaseSpecificDelta {
	ps := &PhaseSpecificDelta{}
	for p := 0; p < phases; p++ {
		ps.Models = append(ps.Models, NewAMMADelta(cfg, pcs, 0, seed+int64(p)*7919))
	}
	return ps
}

func (ps *PhaseSpecificDelta) modelFor(phase int) DeltaModel {
	if len(ps.Models) == 0 {
		invariant.Fail("models: empty PhaseSpecificDelta")
	}
	return ps.Models[phaseIndex(phase, len(ps.Models))]
}

// DeltaLoss implements DeltaModel (dispatching on s.Phase).
func (ps *PhaseSpecificDelta) DeltaLoss(s *Sample) *tensor.Tensor {
	return ps.modelFor(s.Phase).DeltaLoss(s)
}

// Params implements nn.Module (union of all phase models).
func (ps *PhaseSpecificDelta) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, m := range ps.Models {
		out = append(out, m.Params()...)
	}
	return out
}

// phaseIndex is the phase model a sample of phase phase dispatches to, of
// n: the one rule inference and per-phase training (phaseFilter) share.
func phaseIndex(phase, n int) int { return phase % n }

// PhaseSpecificPage is AMMA-PS for temporal page prediction.
type PhaseSpecificPage struct {
	Models []PageModel
}

// NewPhaseSpecificPage builds one AMMA page model per phase.
func NewPhaseSpecificPage(cfg Config, pages, pcs *Vocab, phases int, seed int64) *PhaseSpecificPage {
	ps := &PhaseSpecificPage{}
	for p := 0; p < phases; p++ {
		ps.Models = append(ps.Models, NewAMMAPage(cfg, pages, pcs, 0, seed+int64(p)*7919))
	}
	return ps
}

func (ps *PhaseSpecificPage) modelFor(phase int) PageModel {
	if len(ps.Models) == 0 {
		invariant.Fail("models: empty PhaseSpecificPage")
	}
	return ps.Models[phaseIndex(phase, len(ps.Models))]
}

// PageLoss implements PageModel.
func (ps *PhaseSpecificPage) PageLoss(s *Sample) *tensor.Tensor {
	return ps.modelFor(s.Phase).PageLoss(s)
}

// PageProbs implements PageProber when the per-phase models do.
func (ps *PhaseSpecificPage) PageProbs(s *Sample) []float64 {
	p, ok := ps.modelFor(s.Phase).(PageProber)
	if !ok {
		invariant.Failf("models: phase model %T cannot expose probabilities", ps.modelFor(s.Phase))
	}
	return p.PageProbs(s)
}

// Params implements nn.Module.
func (ps *PhaseSpecificPage) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, m := range ps.Models {
		out = append(out, m.Params()...)
	}
	return out
}

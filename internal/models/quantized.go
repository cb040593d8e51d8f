package models

// 8-bit weights (DESIGN.md §8, the paper's §6.1 / Fig. 13). "Int8" is a
// weight precision, not an inference engine: Quantize* rounds a COPY of a
// trained model's parameters onto the symmetric 8-bit grid — one scale per
// output channel for matrices, one per tensor for vectors
// (nn.QuantizePerChannel) — and returns the f32 mirror of that copy (f32.go),
// so a live ctx scores the dequantised weights on the one float forward and a
// nil ctx scores the rounded float64 copy. The source is never written: a
// sweep shares one trained suite across simulations.

import (
	"fmt"

	"mpgraph/internal/invariant"
	"mpgraph/internal/nn"
)

// weightBits is the quantised weight width of the Int8 tier.
const weightBits = 8

// roundedCopy fills fresh — a model built from src's own configuration — with
// src's parameters rounded onto the weightBits grid.
func roundedCopy[M nn.Module](fresh, src M) M {
	invariant.OnErr(nn.CopyParams(fresh, src)) // same constructor, same shapes
	_, err := nn.QuantizePerChannel(fresh, weightBits)
	invariant.OnErr(err) // weightBits is a constant inside quantizeSim's range
	return fresh
}

// phases reports the phase-embedding vocabulary the core was built with (0:
// not phase-informed).
func (c *ammaCore[T]) phases() int {
	if c.phaseEmb == nil {
		return 0
	}
	return c.phaseEmb.Vocab()
}

// QuantizeDelta returns the 8-bit-weight mirror of a trained delta model.
// AMMADelta and PhaseSpecificDelta (of AMMADeltas) are supported; anything
// else is an explicit error so callers cannot silently keep full-precision
// weights.
func QuantizeDelta(m DeltaModel) (DeltaModel, error) {
	switch t := m.(type) {
	case *AMMADelta:
		return NewF32AMMADelta(roundedCopy(NewAMMADelta(t.cfg, t.pcs, t.core.phases(), 0), t)), nil
	case *PhaseSpecificDelta:
		out := &PhaseSpecificDelta{Models: make([]DeltaModel, len(t.Models))}
		for p, sub := range t.Models {
			qsub, err := QuantizeDelta(sub)
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = qsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no int8 mirror for delta model %T", m)
	}
}

// QuantizePage returns the 8-bit-weight mirror of a trained page model.
// AMMAPage, BinaryPage and PhaseSpecificPage are supported.
func QuantizePage(m PageModel) (PageModel, error) {
	switch t := m.(type) {
	case *AMMAPage:
		return NewF32AMMAPage(roundedCopy(NewAMMAPage(t.cfg, t.pages, t.pcs, t.core.phases(), 0), t)), nil
	case *BinaryPage:
		return NewF32BinaryPage(roundedCopy(NewBinaryPage(t.cfg, t.pages, t.pcs, 0), t)), nil
	case *PhaseSpecificPage:
		out := &PhaseSpecificPage{Models: make([]PageModel, len(t.Models))}
		for p, sub := range t.Models {
			qsub, err := QuantizePage(sub)
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = qsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no int8 mirror for page model %T", m)
	}
}

// QuantizeSuite quantizes a delta/page model pair — the wiring the
// experiments pipeline uses under Options.Int8. calib is accepted and
// ignored: weights need no calibration pass, and the parameter stays only
// because the repository benchmark calls this signature.
func QuantizeSuite(delta DeltaModel, page PageModel, calib []*Sample) (DeltaModel, PageModel, error) {
	qd, err := QuantizeDelta(delta)
	if err != nil {
		return nil, nil, err
	}
	qp, err := QuantizePage(page)
	if err != nil {
		return nil, nil, err
	}
	return qd, qp, nil
}

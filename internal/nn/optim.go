package nn

import (
	"math"

	"mpgraph/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with the usual defaults.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	// ClipNorm, when positive, rescales the global gradient norm to at most
	// this value before stepping (stabilises small-batch attention
	// training).
	ClipNorm float64

	t int
	m map[*tensor.Tensor][]float64
	v map[*tensor.Tensor][]float64
}

// NewAdam builds an Adam optimizer with the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5,
		m: map[*tensor.Tensor][]float64{},
		v: map[*tensor.Tensor][]float64{},
	}
}

// Step applies one update to all parameters with gradients. It does not zero
// the gradients (callers ZeroGrads between batches) but clipping rescales them
// in place. Each element loop below is the definition of its tensor ...Fast
// leaf, which returns the same bits from a vector kernel where one exists.
func (a *Adam) Step(params []*tensor.Tensor) {
	a.t++
	if a.ClipNorm > 0 {
		total := 0.0
		for _, p := range params {
			for _, g := range p.Grad {
				total += g * g
			}
		}
		norm := math.Sqrt(total)
		if norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for _, p := range params {
				if tensor.ScaleFast(p.Grad, scale) {
					continue
				}
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.Data))
		}
		v := a.v[p]
		if tensor.AdamUpdateFast(p.Data, p.Grad, m, v, a.Beta1, a.Beta2, bc1, bc2, a.LR, a.Eps) {
			continue
		}
		for i, g := range p.Grad {
			if math.Float64bits(g)|math.Float64bits(m[i])|math.Float64bits(v[i]) == 0 {
				// An embedding row no sample has touched yet: the update
				// would store m = v = +0 back and subtract
				// (0/bc1)*LR / (0 + Eps) = +0 from the weight.
				continue
			}
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

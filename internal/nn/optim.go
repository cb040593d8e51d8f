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
// the gradients (callers ZeroParamGrads between batches) and leaves them as
// they are: the clip's rescale multiplies each gradient as the update reads
// it, the same rounded product a rescaled copy would hold. Each element loop
// below is the definition of its tensor ...Fast leaf, which returns the same
// bits from a vector kernel where one exists.
func (a *Adam) Step(params []*tensor.Tensor) {
	scale := 1.0
	if a.ClipNorm > 0 && !a.clipIdle(params) {
		total := 0.0
		for _, p := range params {
			if t, ok := tensor.SumSquaresSeqFast(total, p.Grad); ok {
				total = t
				continue
			}
			for _, g := range p.Grad {
				total += g * g
			}
		}
		if norm := math.Sqrt(total); norm > a.ClipNorm {
			scale = a.ClipNorm / norm
		}
	}
	a.update(params, scale, false)
}

// clipIdle reports whether Step's clip provably leaves the gradients alone,
// so that its ordered sum of squares S, whose value only that test reads,
// need not run: sqrt(S) <= ClipNorm holds when S < ClipNorm² exactly, since
// a correctly rounded sqrt of a value below the float ClipNorm is at most
// ClipNorm.
//
// S is bounded from V, the same squares summed on the vector kernel in
// another order. Both are sums of the rounded squares over a tree of height
// below N = (elements) + len(params) + 8, so each lies within γ = Nu/(1-Nu)
// of the exact sum E (u = 2⁻⁵³; Higham, Accuracy and Stability of Numerical
// Algorithms, §4.2), apart from an absolute 2⁻¹⁰⁷⁵ per square that
// underflows. Hence S <= V(1+γ)/(1-γ) + 3N·2⁻¹⁰⁷⁵ < V(1+2.01Nu) + N·2⁻¹⁰⁷⁰
// for Nu <= 2⁻¹⁰, and hi below adds 1.99Nu more than that to cover its own
// three roundings. lim is at most ClipNorm² despite its rounding (which is
// why a ClipNorm² under 2⁻¹⁰⁰⁰, rounded with an absolute error, takes the
// ordered sum), and no partial sum can overflow below it. A NaN or Inf
// anywhere makes hi NaN or Inf, and the ordered sum runs.
func (a *Adam) clipIdle(params []*tensor.Tensor) bool {
	v, n := 0.0, 8+len(params) // n counts N
	for _, p := range params {
		s, ok := tensor.SumSquaresFast(p.Grad)
		if !ok {
			return false
		}
		v += s
		n += len(p.Grad)
	}
	nu := float64(n) * 0x1p-53
	lim := min(a.ClipNorm*a.ClipNorm*(1-0x1p-50), math.MaxFloat64/2)
	if nu > 0x1p-10 || lim < 0x1p-1000 {
		return false
	}
	hi := v*(1+4*nu) + float64(n)*0x1p-1070
	return hi < lim
}

// StepZeroGrads is Step when every gradient is +0 (or nil): a step of a
// model the batch did not reach. It skips the clip pass, whose norm would be
// 0; the moments still decay and the weights still move, with Step's bits.
// The vector kernel reads no gradient (a +0 register gives the same bits);
// the scalar loop reads p.Grad, so the gradients must already be zero.
func (a *Adam) StepZeroGrads(params []*tensor.Tensor) {
	a.update(params, 1, true)
}

// update is Step after the clip test: advance t, then the element update on
// the gradients times scale (1 when the clip leaves them alone, and g·1 = g
// bit for bit), or on +0 gradients where zeroGrads says they are.
func (a *Adam) update(params []*tensor.Tensor, scale float64, zeroGrads bool) {
	a.t++
	st := a.stepScalars(scale)
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
		v, g := a.v[p], p.Grad
		if zeroGrads {
			g = nil
		}
		if _, ok := tensor.AdamUpdateFast(p.Data, g, m, v, &st); ok {
			continue
		}
		for i, g := range p.Grad {
			g *= scale
			if math.Float64bits(g)|math.Float64bits(m[i])|math.Float64bits(v[i]) == 0 {
				// An embedding row no sample has touched yet: the update
				// would store m = v = +0 back and subtract
				// (0/bc1)*LR / (0 + Eps) = +0 from the weight.
				continue
			}
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / st.BC1
			vh := v[i] / st.BC2
			p.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// stepScalars returns the scalars of step a.t, on gradients times scale, that
// every parameter's update shares: the bias corrections and, for the vector
// kernel's quotient estimates, their reciprocals.
func (a *Adam) stepScalars(scale float64) tensor.AdamStep {
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	return tensor.AdamStep{
		Beta1: a.Beta1, Beta2: a.Beta2, BC1: bc1, BC2: bc2,
		R1: tensor.SplitReciprocal(bc1), R2: tensor.SplitReciprocal(bc2),
		LR: a.LR, Eps: a.Eps, Scale: scale,
	}
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpgraph/internal/tensor"
)

// defaultNaN is the NaN x86 arithmetic itself generates; planting only that
// one keeps a meeting of two NaNs independent of operand order (see
// tensor/train_kernel_test.go).
var defaultNaN = math.Float64frombits(0xFFF8000000000000)

var adamSpecials = []float64{
	math.Copysign(0, -1), 0, defaultNaN, math.Inf(1), math.Inf(-1),
	5e-324, -3e-310, 1.7e308, -1.7e308, 1e-300,
}

// adamState is one parameter with its gradient and moments, n values each.
type adamState struct{ p, g, m, v []float64 }

func randAdamState(rng *rand.Rand, n int, planted bool) adamState {
	s := adamState{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		s.p[i], s.g[i], s.m[i] = rng.NormFloat64(), rng.NormFloat64(), 0.1*rng.NormFloat64()
		s.v[i] = 0.01 * rng.Float64()
		if rng.Intn(4) == 0 {
			s.g[i] = 0 // an untouched row: the moments alone move the weight
		}
		if !planted {
			continue
		}
		for _, f := range [][]float64{s.p, s.g, s.m, s.v} {
			if rng.Intn(6) == 0 {
				f[i] = adamSpecials[rng.Intn(len(adamSpecials))]
			}
		}
	}
	return s
}

// step runs Adam.Step number t on a copy of s and returns the copy.
func (s adamState) step(t int, clip float64) adamState {
	out := adamState{slices.Clone(s.p), slices.Clone(s.g), slices.Clone(s.m), slices.Clone(s.v)}
	p := tensor.New(1, len(out.p), out.p).Param()
	p.Grad = out.g
	a := NewAdam(1e-3)
	a.ClipNorm = clip
	a.t = t - 1
	a.m[p], a.v[p] = out.m, out.v
	a.Step([]*tensor.Tensor{p})
	return out
}

// TestAdamKernelMatchesScalarLoop: the vector Adam update and clip rescale
// against Step's own scalar loops, bit for bit, over every masked-tail
// residue, at the first step (bias corrections far from 1) and a late one,
// clipping off, idle and firing.
func TestAdamKernelMatchesScalarLoop(t *testing.T) {
	if !tensor.ScaleFast([]float64{1}, 1) {
		t.Skip("no training kernels on this machine or build")
	}
	rng := rand.New(rand.NewSource(61))
	var lens []int
	for n := 1; n <= 33; n++ {
		lens = append(lens, n)
	}
	for _, n := range append(lens, 64, 126, 1024) {
		for _, planted := range []bool{false, true} {
			for _, step := range []int{1, 1000} {
				for _, clip := range []float64{0, 1e9, 0.05} {
					s := randAdamState(rng, n, planted)
					got := s.step(step, clip)
					restore := tensor.ForcePortableKernels()
					want := s.step(step, clip)
					restore()
					for fi, f := range [][2][]float64{{got.p, want.p}, {got.g, want.g}, {got.m, want.m}, {got.v, want.v}} {
						for i := range f[1] {
							if math.Float64bits(f[0][i]) != math.Float64bits(f[1][i]) {
								t.Fatalf("n=%d planted=%v t=%d clip=%g: %s[%d] kernel %x (%g), scalar loop %x (%g)",
									n, planted, step, clip, []string{"p", "g", "m", "v"}[fi], i,
									math.Float64bits(f[0][i]), f[0][i], math.Float64bits(f[1][i]), f[1][i])
							}
						}
					}
				}
			}
		}
	}
}

// TestAdamMatchesTextbook checks Step, on both kernel paths, against Kingma &
// Ba's Algorithm 1 written out independently (with the global-norm clip in
// front). The two round differently, so the bound is relative.
func TestAdamMatchesTextbook(t *testing.T) {
	const lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
	for _, portable := range []bool{false, true} {
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			if portable {
				defer tensor.ForcePortableKernels()()
			}
			rng := rand.New(rand.NewSource(62))
			for _, clip := range []float64{0, 0.5} {
				const n = 37
				p := tensor.Randn(1, n, 1, rng).Param()
				p.Grad = make([]float64, n)
				theta := slices.Clone(p.Data)
				m, v := make([]float64, n), make([]float64, n)
				a := NewAdam(lr)
				a.ClipNorm = clip
				for step := 1; step <= 25; step++ {
					g := make([]float64, n)
					sq := 0.0
					for i := range g {
						g[i] = rng.NormFloat64()
						sq += g[i] * g[i]
					}
					copy(p.Grad, g)
					if norm := math.Sqrt(sq); clip > 0 && norm > clip {
						for i := range g {
							g[i] = g[i] * clip / norm
						}
					}
					for i := range theta {
						m[i] = b1*m[i] + (1-b1)*g[i]
						v[i] = b2*v[i] + (1-b2)*(g[i]*g[i])
						mhat := m[i] / (1 - math.Pow(b1, float64(step)))
						vhat := v[i] / (1 - math.Pow(b2, float64(step)))
						theta[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
					}
					a.Step([]*tensor.Tensor{p})
					for i := range theta {
						if d := math.Abs(p.Data[i] - theta[i]); d > 1e-12*math.Max(1, math.Abs(theta[i])) {
							t.Fatalf("clip=%g step %d: p[%d] = %.17g, textbook %.17g", clip, step, i, p.Data[i], theta[i])
						}
					}
				}
			}
		})
	}
}

// BenchmarkAdamStep is one optimizer step over a single parameter tensor: the
// ordered clip-norm sum plus the element update (gradients small enough that
// the clip never fires, so every iteration does the same work).
func BenchmarkAdamStep(b *testing.B) {
	for _, n := range []int{2048, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := tensor.Randn(1, n, 1, rng).Param()
			p.Grad = make([]float64, n)
			for i := range p.Grad {
				p.Grad[i] = 1e-3 * rng.NormFloat64()
			}
			a := NewAdam(1e-3)
			params := []*tensor.Tensor{p}
			a.Step(params) // allocates the moments
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Step(params)
			}
		})
	}
}

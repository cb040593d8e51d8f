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

// unskippedAdam is Step's element update (no clip) as it stood before all-zero
// (g, m, v) elements were left alone: every element goes through the
// arithmetic.
func unskippedAdam(s adamState, t int) adamState {
	out := adamState{slices.Clone(s.p), slices.Clone(s.g), slices.Clone(s.m), slices.Clone(s.v)}
	a := NewAdam(1e-3)
	bc1 := 1 - math.Pow(a.Beta1, float64(t))
	bc2 := 1 - math.Pow(a.Beta2, float64(t))
	for i, g := range out.g {
		out.m[i] = a.Beta1*out.m[i] + (1-a.Beta1)*g
		out.v[i] = a.Beta2*out.v[i] + (1-a.Beta2)*g*g
		mh := out.m[i] / bc1
		vh := out.v[i] / bc2
		out.p[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
	}
	return out
}

// TestAdamSkipIsNoOp: leaving an element (the kernel: a tile) whose gradient
// and moments are all +0 bits alone is exact. States with whole zero tiles,
// zero runs that straddle tiles and lone zero elements — under weights that
// are ordinary, -0, NaN, infinite or subnormal — come out of Step, on both
// kernel paths, with the bits the unskipped update gives.
func TestAdamSkipIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{1, 7, 8, 9, 64, 100, 1024} {
		for _, planted := range []bool{false, true} {
			for _, step := range []int{1, 1000} {
				s := randAdamState(rng, n, planted)
				for lo := 0; lo < n; lo += 8 + rng.Intn(24) {
					hi := min(n, lo+[]int{1, 8, 13, 16}[rng.Intn(4)])
					clear(s.g[lo:hi])
					clear(s.m[lo:hi])
					clear(s.v[lo:hi])
					s.p[lo] = adamSpecials[rng.Intn(len(adamSpecials))]
				}
				want := unskippedAdam(s, step)
				for _, portable := range []bool{false, true} {
					restore := func() {}
					if portable {
						restore = tensor.ForcePortableKernels()
					}
					got := s.step(step, 0)
					restore()
					for fi, f := range [][2][]float64{{got.p, want.p}, {got.m, want.m}, {got.v, want.v}} {
						for i := range f[1] {
							if math.Float64bits(f[0][i]) != math.Float64bits(f[1][i]) {
								t.Fatalf("n=%d planted=%v t=%d portable=%v: %s[%d] = %x (%g), unskipped update %x (%g)",
									n, planted, step, portable, []string{"p", "m", "v"}[fi], i,
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
// the clip never fires, so every iteration does the same work). The sparse row
// is an embedding table of 16-wide rows of which training has reached one in
// eight: the other rows' gradients and moments are zero, and stay so.
func BenchmarkAdamStep(b *testing.B) {
	for _, c := range []struct {
		name      string
		n, stride int
	}{{"n=2048", 2048, 1}, {"n=65536", 65536, 1}, {"sparse", 65536, 8}} {
		n := c.n
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := tensor.Randn(1, n, 1, rng).Param()
			p.Grad = make([]float64, n)
			for i := range p.Grad {
				if i/16%c.stride == 0 {
					p.Grad[i] = 1e-3 * rng.NormFloat64()
				}
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

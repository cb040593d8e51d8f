package nn

import (
	"encoding/binary"
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

// TestAdamKernelMatchesScalarLoop: the vector Adam update, which applies the
// clip rescale as it loads each gradient, against Step's own scalar loops,
// bit for bit, over every masked-tail residue, at the first step (bias
// corrections far from 1) and a late one, clipping off, idle and firing —
// firing also at a subnormal scale, where most rescaled gradients underflow
// to ±0 and a tile they leave all-zero must still be skipped.
func TestAdamKernelMatchesScalarLoop(t *testing.T) {
	if _, ok := tensor.SumSquaresFast(nil); !ok {
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
				for _, clip := range []float64{0, 1e9, 0.05, 1e-310} {
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
	// Constructed states, at the steps they were built for: estimates a
	// hair from the rounding boundary, and lanes that must fall back to the
	// divider, which they must be seen to do.
	for _, step := range []int{1, 2, 1000} {
		for _, c := range constructedAdamStates(rng, step) {
			got := c.s.step(step, 0)
			restore := tensor.ForcePortableKernels()
			want := c.s.step(step, 0)
			restore()
			for fi, f := range [][2][]float64{{got.p, want.p}, {got.m, want.m}, {got.v, want.v}} {
				for i := range f[1] {
					if math.Float64bits(f[0][i]) != math.Float64bits(f[1][i]) {
						t.Fatalf("%s, t=%d: %s[%d] kernel %x (%g), scalar loop %x (%g)",
							c.name, step, []string{"p", "m", "v"}[fi], i,
							math.Float64bits(f[0][i]), f[0][i], math.Float64bits(f[1][i]), f[1][i])
					}
				}
			}
			if fb := c.s.kernelFallbacks(c.s.adamStep(step)); c.fallsBack && fb == 0 {
				t.Errorf("%s, t=%d: no tile fell back to the divider", c.name, step)
			}
		}
	}
}

type constructedAdamState struct {
	name      string
	s         adamState
	fallsBack bool // the kernel must send some tile to the divider
}

// constructedAdamStates builds, for Adam step t, 32-element states (four
// tiles) whose gradients are +0, so that the moments the update stores are
// RN(β·m) and RN(β·v): quotients m/bc1 and v/bc2 and roots √(v/bc2) within
// 2⁻⁶⁰ (relative) of a rounding midpoint; m/bc1 and v/bc2 exact powers of
// two; tiles mixing +0, -0 and nonzero moments; moments near and in the
// subnormal range.
func constructedAdamStates(rng *rand.Rand, t int) []constructedAdamState {
	a := NewAdam(1e-3)
	bc1 := 1 - math.Pow(a.Beta1, float64(t))
	bc2 := 1 - math.Pow(a.Beta2, float64(t))
	const n = 32
	blank := func() adamState {
		s := adamState{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
		for i := range s.p {
			s.p[i], s.m[i], s.v[i] = rng.NormFloat64(), 0.1*rng.NormFloat64(), 0.01*(0.5+rng.Float64())
		}
		return s
	}
	// find draws moments until keep accepts their stored values.
	find := func(draw func() float64, b float64, keep func(stored float64) bool) float64 {
		for {
			if x := draw(); keep(b * x) {
				return x
			}
		}
	}
	mDraw := func() float64 { return 0.1 * rng.NormFloat64() }
	vDraw := func() float64 { return 0.01 * (0.5 + rng.Float64()) }
	var out []constructedAdamState
	add := func(name string, fallsBack bool, fill func(s adamState, i int)) {
		s := blank()
		for i := 0; i < n; i++ {
			fill(s, i)
		}
		out = append(out, constructedAdamState{name, s, fallsBack})
	}
	if frac, _ := math.Frexp(bc1); frac != 0.5 { // else m/bc1 is exact (bc1 = 1 from t = 356 on)
		add("m/bc1 near a midpoint", false, func(s adamState, i int) {
			s.m[i] = find(mDraw, a.Beta1, func(m float64) bool { return quotientNearMidpoint(m, bc1) })
		})
	}
	add("v/bc2 near a midpoint", false, func(s adamState, i int) {
		s.v[i] = find(vDraw, a.Beta2, func(v float64) bool { return quotientNearMidpoint(v, bc2) })
	})
	add("sqrt(v/bc2) near a midpoint", false, func(s adamState, i int) {
		s.v[i] = find(vDraw, a.Beta2, func(v float64) bool { return rootNearMidpoint(v / bc2) })
	})
	add("powers of two", true, func(s adamState, i int) {
		k := float64(i%5) - 9
		if x, ok := preimage(math.Ldexp(bc1, int(k)), a.Beta1); ok && i%2 == 0 {
			s.m[i] = x
		}
		if x, ok := preimage(math.Ldexp(bc2, int(k)-6), a.Beta2); ok && i%3 == 0 {
			s.v[i] = x
		}
	})
	add("zero and nonzero lanes", true, func(s adamState, i int) {
		switch i % 5 {
		case 0: // m stays +0 under a live v
			s.m[i] = 0
		case 1:
			s.m[i] = math.Copysign(0, -1)
		case 2: // nothing to update: the lane is skipped
			s.m[i], s.v[i] = 0, 0
		}
	})
	tiny := []float64{5e-324, -1e-310, 0x1p-1022, -0x1p-1000, 0x1p-969, 1e-300}
	add("near-subnormal moments", true, func(s adamState, i int) {
		if i%2 == 0 {
			s.m[i] = tiny[i%len(tiny)]
		} else {
			s.v[i] = math.Abs(tiny[i%len(tiny)])
		}
	})
	return out
}

// ulp is the spacing above |x|.
func ulp(x float64) float64 { return math.Nextafter(math.Abs(x), math.Inf(1)) - math.Abs(x) }

// quotientNearMidpoint reports whether a/b (b > 0) lies within 2⁻⁶⁰ of a
// midpoint between two floats, relative to a/b.
func quotientNearMidpoint(a, b float64) bool {
	q := a / b
	r := math.FMA(-q, b, a) // a - q·b, exactly
	return ulp(q)/2*b-math.Abs(r) < 0x1p-60*math.Abs(q)*b
}

// rootNearMidpoint is quotientNearMidpoint for √x: x - s² = (√x - s)(√x + s).
func rootNearMidpoint(x float64) bool {
	s := math.Sqrt(x)
	r := math.FMA(-s, s, x)
	return ulp(s)*s-math.Abs(r) < 0x1p-60*s*2*s
}

// preimage returns an x with RN(b·x) = y, if one lies within 16 ulps of y/b.
func preimage(y, b float64) (float64, bool) {
	x := y / b
	for range 16 {
		x = math.Nextafter(x, 0)
	}
	for range 33 {
		if b*x == y {
			return x, true
		}
		x = math.Nextafter(x, math.Inf(1))
	}
	return 0, false
}

// adamStep returns the scalars Adam.Step uses at step t, clip off.
func (s adamState) adamStep(t int) tensor.AdamStep {
	a := NewAdam(1e-3)
	a.t = t
	return a.stepScalars(1)
}

// kernelFallbacks runs the vector update with st on a copy of s and returns
// how many tiles fell back to the divider.
func (s adamState) kernelFallbacks(st tensor.AdamStep) int {
	c := adamState{slices.Clone(s.p), slices.Clone(s.g), slices.Clone(s.m), slices.Clone(s.v)}
	n, _ := tensor.AdamUpdateFast(c.p, c.g, c.m, c.v, &st)
	return n
}

// TestAdamKernelFallbackRare: on ordinary states the kernel keeps its
// quotient estimates in all but a sliver of tiles, so a kernel that always
// fell back to the divider (and so matched the scalar loop trivially) fails.
func TestAdamKernelFallbackRare(t *testing.T) {
	if _, ok := tensor.SumSquaresFast(nil); !ok {
		t.Skip("no training kernels on this machine or build")
	}
	rng := rand.New(rand.NewSource(66))
	tiles, fell := 0, 0
	for _, step := range []int{1, 2, 10, 100, 1000, 10000} {
		s := randAdamState(rng, 4096, false)
		fell += s.kernelFallbacks(s.adamStep(step))
		tiles += 4096 / 8
	}
	if fell*100 >= tiles {
		t.Fatalf("%d of %d tiles fell back to the divider", fell, tiles)
	}
}

// TestAdamKernelPoorEstimates: whatever reciprocals the kernel's quotient
// estimates start from, what it stores is the scalar loop's. Reciprocals
// 2⁻⁵⁸ (relative) off turn each quotient within about that of a rounding
// midpoint into its neighbour across it, under half an ulp past the midpoint:
// the test must reject those (one with twice its bound accepts them).
// Reciprocals one ulp off with no low part miss by more, and far off or NaN
// ones fail every lane.
func TestAdamKernelPoorEstimates(t *testing.T) {
	if _, ok := tensor.SumSquaresFast(nil); !ok {
		t.Skip("no training kernels on this machine or build")
	}
	rng := rand.New(rand.NewSource(67))
	for _, step := range []int{1, 3, 1000} {
		for _, planted := range []bool{false, true} {
			s := randAdamState(rng, 1024, planted)
			restore := tensor.ForcePortableKernels()
			want := s.step(step, 0)
			restore()
			good := s.adamStep(step)
			for _, r := range []struct {
				name   string
				r1, r2 [2]float64
			}{
				{"2⁻⁵⁸ high", [2]float64{good.R1[0], good.R1[1] + 0x1p-58*good.R1[0]}, [2]float64{good.R2[0], good.R2[1] + 0x1p-58*good.R2[0]}},
				{"2⁻⁵⁸ low", [2]float64{good.R1[0], good.R1[1] - 0x1p-58*good.R1[0]}, [2]float64{good.R2[0], good.R2[1] - 0x1p-58*good.R2[0]}},
				{"one ulp up", [2]float64{math.Nextafter(good.R1[0], 2), 0}, [2]float64{math.Nextafter(good.R2[0], 2e3), 0}},
				{"one ulp down", [2]float64{math.Nextafter(good.R1[0], 0), 0}, [2]float64{math.Nextafter(good.R2[0], 0), 0}},
				{"far", [2]float64{good.R1[0] * 1.5, 0}, [2]float64{good.R2[0] / 3, 0}},
				{"NaN", [2]float64{defaultNaN, 0}, [2]float64{defaultNaN, defaultNaN}},
			} {
				st := good
				st.R1, st.R2 = r.r1, r.r2
				got := adamState{slices.Clone(s.p), slices.Clone(s.g), slices.Clone(s.m), slices.Clone(s.v)}
				fell, _ := tensor.AdamUpdateFast(got.p, got.g, got.m, got.v, &st)
				if fell == 0 {
					t.Errorf("t=%d planted=%v %s: no tile fell back", step, planted, r.name)
				}
				for fi, f := range [][2][]float64{{got.p, want.p}, {got.m, want.m}, {got.v, want.v}} {
					for i := range f[1] {
						if math.Float64bits(f[0][i]) != math.Float64bits(f[1][i]) {
							t.Fatalf("t=%d planted=%v %s: %s[%d] kernel %x (%g), scalar loop %x (%g)",
								step, planted, r.name, []string{"p", "m", "v"}[fi], i,
								math.Float64bits(f[0][i]), f[0][i], math.Float64bits(f[1][i]), f[1][i])
						}
					}
				}
			}
		}
	}
}

// FuzzAdamKernel: Step on the vector kernel against the scalar loop, bit for
// bit, on fuzzed weights, gradients, moments, step and clip. The input's
// bytes are float64s in groups of four (p, g, m, v), at most 64 elements;
// every NaN becomes defaultNaN (see its comment).
func FuzzAdamKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(68))
	for _, n := range []int{1, 9, 33} {
		s := randAdamState(rng, n, n > 1)
		var b []byte
		for i := 0; i < n; i++ {
			for _, x := range []float64{s.p[i], s.g[i], s.m[i], s.v[i]} {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
		}
		f.Add(b, uint16(n), []float64{0, 1e9, 0.05, 1e-310}[n%4])
	}
	f.Fuzz(func(t *testing.T, b []byte, step uint16, clip float64) {
		n := min(len(b)/32, 64)
		if n == 0 {
			return
		}
		s := adamState{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
		for i := 0; i < n; i++ {
			for j, f := range [][]float64{s.p, s.g, s.m, s.v} {
				x := math.Float64frombits(binary.LittleEndian.Uint64(b[32*i+8*j:]))
				if math.IsNaN(x) {
					x = defaultNaN
				}
				f[i] = x
			}
		}
		got := s.step(int(step)+1, clip)
		restore := tensor.ForcePortableKernels()
		want := s.step(int(step)+1, clip)
		restore()
		for fi, f := range [][2][]float64{{got.p, want.p}, {got.g, want.g}, {got.m, want.m}, {got.v, want.v}} {
			for i := range f[1] {
				if math.Float64bits(f[0][i]) != math.Float64bits(f[1][i]) {
					t.Fatalf("t=%d clip=%g: %s[%d] kernel %x (%g), scalar loop %x (%g)",
						int(step)+1, clip, []string{"p", "g", "m", "v"}[fi], i,
						math.Float64bits(f[0][i]), f[0][i], math.Float64bits(f[1][i]), f[1][i])
				}
			}
		}
	})
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

// stepClip runs one Adam.Step with the given clip over parameters holding
// copies of grads (weights and moments seeded from rng's fixed stream), and
// returns every weight, gradient and moment it leaves, in order.
func stepClip(grads [][]float64, clip float64) []float64 {
	rng := rand.New(rand.NewSource(65))
	a := NewAdam(1e-3)
	a.ClipNorm = clip
	var params []*tensor.Tensor
	for _, g := range grads {
		p := tensor.Randn(1, len(g), 1, rng).Param()
		p.Grad = slices.Clone(g)
		params = append(params, p)
	}
	a.Step(params)
	var out []float64
	for _, p := range params {
		out = append(append(append(append(out, p.Data...), p.Grad...), a.m[p]...), a.v[p]...)
	}
	return out
}

// orderedNorm is Step's clip norm: the square root of Σg² in parameter and
// element order.
func orderedNorm(grads [][]float64) float64 {
	total := 0.0
	for _, g := range grads {
		for _, v := range g {
			total += v * v
		}
	}
	return math.Sqrt(total)
}

// TestAdamClipBoundary: Step, whose clip skips the ordered sum of squares
// when a vector sum's error bound proves the norm under ClipNorm, against the
// scalar step that always sums in order, bit for bit. The gradient sets put
// their ordered norm exactly at ClipNorm, one ulp either side of it and far
// either side, and include one whose ordered sum rounds up at every add, and
// NaN, +Inf, all-zero and embedding-sparse sets. At a ulp below the norm the
// clip must fire although the vector sum is as likely as not to lie under
// ClipNorm², so a bound without its error term fails here.
func TestAdamClipBoundary(t *testing.T) {
	if _, ok := tensor.SumSquaresFast(nil); !ok {
		t.Skip("no training kernels on this machine or build")
	}
	rng := rand.New(rand.NewSource(64))
	lens := []int{4096, 1024, 33, 7}
	dense := func(scale float64) [][]float64 {
		var gs [][]float64
		for _, n := range lens {
			g := make([]float64, n)
			for i := range g {
				g[i] = scale * rng.NormFloat64()
			}
			gs = append(gs, g)
		}
		return gs
	}
	type set struct {
		name  string
		grads [][]float64
	}
	var sets []set
	for i := 0; i < 16; i++ {
		sets = append(sets, set{fmt.Sprintf("dense %d", i), dense([]float64{1e-3, 1, 1e3}[i%3])})
	}
	nan, inf := dense(1), dense(1)
	nan[1][500] = defaultNaN
	inf[2][3] = math.Inf(1)
	sparse := make([]float64, 65536) // an embedding table of 16-wide rows, one in eight reached
	for i := range sparse {
		if i/16%8 == 0 {
			sparse[i] = 1e-3 * rng.NormFloat64()
		}
	}
	// The ordered sum's worst case: each small square lies just above half
	// an ulp of the total, so every add rounds up and the ordered sum
	// exceeds the exact one by about nu/2, the vector sum (whose other lanes
	// add the small squares among themselves) by nearly as much. A bound
	// with half its error term lets the clip skip here.
	roundUp := []float64{0.75}
	for range 4096 {
		roundUp = append(roundUp, 0x1p-27*(1+0x1p-10))
	}
	sets = append(sets,
		set{"rounding up", [][]float64{roundUp}},
		set{"NaN", nan}, set{"+Inf", inf},
		set{"all zero", [][]float64{make([]float64, 4096), make([]float64, 33)}},
		set{"sparse", [][]float64{sparse, dense(1)[3]}},
		set{"subnormal", [][]float64{{5e-324, -3e-310, 1e-300}}})
	for _, s := range sets {
		norm := orderedNorm(s.grads)
		clips := []float64{5}
		if norm > 0 && !math.IsInf(norm, 0) && !math.IsNaN(norm) {
			clips = []float64{norm, math.Nextafter(norm, 0), math.Nextafter(norm, math.Inf(1)), norm * 1e3, norm / 1e3}
		}
		for _, clip := range clips {
			got := stepClip(s.grads, clip)
			restore := tensor.ForcePortableKernels()
			want := stepClip(s.grads, clip)
			restore()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, norm %.17g, clip %.17g: value %d = %x (%g), scalar step %x (%g)",
						s.name, norm, clip, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
				}
			}
		}
	}
}

// BenchmarkAdamStep is one optimizer step over a single parameter tensor: the
// clip test plus the element update. In the first three rows the gradients are
// small enough that the clip provably never fires, so the vector bound stands
// in for the ordered sum of squares. The sparse row is an embedding table of
// 16-wide rows of which training has reached one in eight: the other rows'
// gradients and moments are zero, and stay so. In the clipped row the norm is
// five times ClipNorm, so every step runs the ordered sum and the rescale; its
// gradients are restored before each step (a 512 KB copy, included). The
// fallback row is n=2048 with one lane per tile whose first moment stays +0
// under a live second moment: m/bc1 = +0 fails the kernel's estimate test,
// so every tile runs again on the divider (the slow path's cost).
func BenchmarkAdamStep(b *testing.B) {
	for _, c := range []struct {
		name      string
		n, stride int
		scale     float64
		fallback  bool
	}{{"n=2048", 2048, 1, 1e-3, false}, {"n=65536", 65536, 1, 1e-3, false}, {"sparse", 65536, 8, 1e-3, false},
		{"clipped", 65536, 1, 0.1, false}, {"fallback", 2048, 1, 1e-3, true}} {
		n := c.n
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := tensor.Randn(1, n, 1, rng).Param()
			p.Grad = make([]float64, n)
			for i := range p.Grad {
				if i/16%c.stride == 0 && !(c.fallback && i%8 == 0) {
					p.Grad[i] = c.scale * rng.NormFloat64()
				}
			}
			grads := slices.Clone(p.Grad)
			clipped := orderedNorm([][]float64{grads}) > 5
			a := NewAdam(1e-3)
			params := []*tensor.Tensor{p}
			a.Step(params) // allocates the moments
			if c.fallback {
				for i := 0; i < n; i += 8 {
					a.v[p][i] = 1e-6
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if clipped {
					copy(p.Grad, grads)
				}
				a.Step(params)
			}
		})
	}
}

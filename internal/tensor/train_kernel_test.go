package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Training-kernel oracle: each unfused kernel of train_amd64.s against the
// scalar Go body it stands in for, bit for bit — every masked-tail residue,
// the zero-entry skip, and planted values where rounding, sign or
// non-finiteness could tell two operation sequences apart.

// trainLens covers one to four tiles plus a ragged lane each, and the long rows.
var trainLens = func() []int {
	var lens []int
	for n := 1; n <= 33; n++ {
		lens = append(lens, n)
	}
	return append(lens, 64, 126, 1024)
}()

// defaultNaN is the NaN x86 arithmetic generates (Inf-Inf, 0*Inf, sqrt(-1)).
// Planting that one keeps every NaN in a test the same bits, so the result
// cannot depend on which operand of a commutative instruction the compiler
// put first in the scalar body (x86 propagates the first operand's payload).
var defaultNaN = math.Float64frombits(0xFFF8000000000000)

var trainSpecials = []float64{
	math.Copysign(0, -1), 0, defaultNaN, math.Inf(1), math.Inf(-1),
	5e-324, -3e-310, 1.7e308, -1.7e308, 1e-300,
}

// plantSpecials overwrites about one value in five.
func plantSpecials(rng *rand.Rand, s []float64) {
	for i := range s {
		if rng.Intn(5) == 0 {
			s[i] = trainSpecials[rng.Intn(len(trainSpecials))]
		}
	}
}

func requireSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: elem %d kernel %x (%g), scalar body %x (%g)",
				name, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestTrainKernelOracleGemmTN(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F kernels on this machine")
	}
	rng := rand.New(rand.NewSource(52))
	negZero := math.Copysign(0, -1)
	for _, m := range []int{1, 2, 5, 32} {
		for _, r := range []int{1, 2, 9} {
			for _, n := range trainLens[:len(trainLens)-1] { // all but 1024
				for variant := 0; variant < 5; variant++ {
					a := randSlice(rng, r*m)
					b := randSlice(rng, r*n)
					out := randSlice(rng, m*n)
					switch variant {
					case 1: // nothing but skips
						clear(a)
					case 2: // one skipped entry of either sign in every a row
						for p := 0; p < r; p++ {
							a[p*m+rng.Intn(m)] = []float64{0, negZero}[p%2]
						}
					case 3: // ReLU-sparse
						for i := range a {
							if a[i] < 0 {
								a[i] = 0
							}
						}
					case 4:
						plantSpecials(rng, a)
						plantSpecials(rng, b)
						plantSpecials(rng, out)
					}
					name := fmt.Sprintf("gemmTN m=%d r=%d n=%d variant=%d", m, r, n, variant)
					got, want := slices.Clone(out), slices.Clone(out)
					gemmTN(got, a, b, m, r, n)
					portable(func() { gemmTN(want, a, b, m, r, n) })
					requireSameBits(t, name, got, want)

					// The fan-out hands gemmTNRows a sub-range of output rows.
					i0 := rng.Intn(m)
					i1 := i0 + rng.Intn(m-i0+1)
					got, want = slices.Clone(out), slices.Clone(out)
					gemmTNRows(got, a, b, m, r, n, i0, i1)
					portable(func() { gemmTNRows(want, a, b, m, r, n, i0, i1) })
					requireSameBits(t, fmt.Sprintf("%s rows [%d,%d)", name, i0, i1), got, want)
				}
			}
		}
	}
}

// TestTrainKernelOracleGemmNT: dA = dOut·Bᵀ on the kernel against dotPanel's
// scalar chains, at the row counts a training step multiplies (one, a
// window, two and three windows: the nine-row blocks and the single rows),
// every output-column remainder mod 8 (tails of the kernel's four-column
// half group, and of dotRows' columns past it), reduced lengths from one
// partial block to the page head's 1024 and beyond, and NaN, ±Inf and −0
// operands, which a skipped zero or a fused multiply-add would give away.
func TestTrainKernelOracleGemmNT(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F kernels on this machine")
	}
	rng := rand.New(rand.NewSource(54))
	var ks []int
	for k := 1; k <= 33; k++ {
		ks = append(ks, k)
	}
	ks = append(ks, 63, 64, 65, 126, 127, 1024, 1100)
	for _, m := range []int{1, 9, 18, 27} {
		for _, k := range ks {
			for n := 1; n <= 17; n++ {
				for _, planted := range []bool{false, true} {
					a, b, out := randSlice(rng, m*k), randSlice(rng, n*k), randSlice(rng, m*n)
					if planted {
						plantSpecials(rng, a)
						plantSpecials(rng, b)
						plantSpecials(rng, out)
					}
					name := fmt.Sprintf("gemmNT m=%d k=%d n=%d planted=%v", m, k, n, planted)
					got, want := slices.Clone(out), slices.Clone(out)
					gemmNT(got, a, b, m, k, n)
					portable(func() { gemmNT(want, a, b, m, k, n) })
					requireSameBits(t, name, got, want)

					// The fan-out hands gemmNTRows a sub-range of output rows.
					r0 := rng.Intn(m)
					r1 := r0 + rng.Intn(m-r0+1)
					got, want = slices.Clone(out), slices.Clone(out)
					gemmNTRows(got, a, b, k, n, r0, r1)
					portable(func() { gemmNTRows(want, a, b, k, n, r0, r1) })
					requireSameBits(t, fmt.Sprintf("%s rows [%d,%d)", name, r0, r1), got, want)
				}
			}
		}
	}
}

// TestTrainKernelOracleElementLoops: the autograd element loops (addVec,
// maddVec, axpyVec, reluGradVec) and the ordered sum of squares against their
// Go bodies, over every masked-tail residue, with planted specials.
func TestTrainKernelOracleElementLoops(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F kernels on this machine")
	}
	rng := rand.New(rand.NewSource(55))
	loops := []struct {
		name string
		run  func(o, x, y []float64)
	}{
		{"addVec", addVec},
		{"addVec in place", func(o, x, y []float64) { addVec(o, o, y) }},
		{"maddVec", maddVec},
		{"axpyVec", func(o, x, y []float64) { axpyVec(o, x, y[0]) }},
		{"reluGradVec", reluGradVec},
	}
	for _, n := range trainLens {
		for _, planted := range []bool{false, true} {
			o, x, y := randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)
			if planted {
				plantSpecials(rng, o)
				plantSpecials(rng, x)
				plantSpecials(rng, y)
			}
			for _, l := range loops {
				got, want := slices.Clone(o), slices.Clone(o)
				l.run(got, x, y)
				portable(func() { l.run(want, x, y) })
				requireSameBits(t, fmt.Sprintf("%s n=%d planted=%v", l.name, n, planted), got, want)
			}

			// Zero tiles the ordered sum skips, between tiles it adds; and
			// tiles with one value set, at every position in turn.
			g, lone := slices.Clone(x), make([]float64, n)
			for i := range g {
				if i/8%2 == 0 {
					g[i] = 0
				}
				if i%8 == i/8%8 {
					lone[i] = x[i]
				}
			}
			for _, total := range []float64{0, 1.5, math.Inf(1), defaultNaN} {
				for _, s := range [][]float64{x, g, lone} {
					got, ok := SumSquaresSeqFast(total, s)
					if !ok {
						t.Skip("no training kernels on this machine or build")
					}
					want := total
					for _, v := range s {
						want += v * v
					}
					requireSameBits(t, fmt.Sprintf("sumSquaresSeq n=%d planted=%v total=%g", n, planted, total), []float64{got}, []float64{want})
				}
			}
		}
	}
}

// TestTrainKernelOracleGemm: the autograd forward product on the whole-row
// kernel against maddPanel's scalar bodies — its four-row blocks, the skip of
// a block whose four a values are ±0 (and of a single ±0 in the k%4 rest),
// 32-column groups with every ragged tail, and planted specials.
func TestTrainKernelOracleGemm(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F kernels on this machine")
	}
	rng := rand.New(rand.NewSource(56))
	negZero := math.Copysign(0, -1)
	var ns []int
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 64, 126, 1024)
	for _, m := range []int{1, 2, 9, 18} {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 31, 32, 64, 126} {
			for _, n := range ns {
				for variant := 0; variant < 4; variant++ {
					a, b, out := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m*n)
					switch variant {
					case 1: // ±0 blocks and single ±0 entries, as one-hot and ReLU rows
						// give, over b and out values a skip that should not
						// happen would show (0·Inf is NaN, −0 + +0 is +0)
						for i := range a {
							if rng.Intn(3) > 0 {
								a[i] = []float64{0, negZero}[rng.Intn(2)]
							}
						}
						plantSpecials(rng, b)
						plantSpecials(rng, out)
					case 2:
						plantSpecials(rng, a)
						plantSpecials(rng, b)
						plantSpecials(rng, out)
					case 3:
						clear(a)
					}
					name := fmt.Sprintf("gemm m=%d k=%d n=%d variant=%d", m, k, n, variant)
					got, want := slices.Clone(out), slices.Clone(out)
					gemm(got, a, b, m, k, n)
					portable(func() { gemm(want, a, b, m, k, n) })
					requireSameBits(t, name, got, want)

					r0 := rng.Intn(m)
					r1 := r0 + rng.Intn(m-r0+1)
					got, want = slices.Clone(out), slices.Clone(out)
					gemmRows(got, a, b, k, n, r0, r1)
					portable(func() { gemmRows(want, a, b, k, n, r0, r1) })
					requireSameBits(t, fmt.Sprintf("%s rows [%d,%d)", name, r0, r1), got, want)
				}
			}
		}
	}
}

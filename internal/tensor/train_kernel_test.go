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

func TestTrainKernelOracleMaddRows(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F kernels on this machine")
	}
	rng := rand.New(rand.NewSource(51))
	coefs := append([]float64{0.37, -1.5}, trainSpecials...)
	for _, n := range trainLens {
		for _, planted := range []bool{false, true} {
			o := randSlice(rng, n)
			b := randSlice(rng, 4*n)
			if planted {
				plantSpecials(rng, o)
				plantSpecials(rng, b)
			}
			for _, av := range coefs {
				name := fmt.Sprintf("maddRow n=%d planted=%v av=%g", n, planted, av)
				got, want := slices.Clone(o), slices.Clone(o)
				maddRow(got, b[:n], av)
				portable(func() { maddRow(want, b[:n], av) })
				requireSameBits(t, name, got, want)

				a := [4]float64{av, coefs[rng.Intn(len(coefs))], rng.NormFloat64(), coefs[rng.Intn(len(coefs))]}
				name = fmt.Sprintf("maddRows4 n=%d planted=%v a=%v", n, planted, a)
				got, want = slices.Clone(o), slices.Clone(o)
				maddRows4(got, b[:n], b[n:2*n], b[2*n:3*n], b[3*n:], a[0], a[1], a[2], a[3])
				portable(func() { maddRows4(want, b[:n], b[n:2*n], b[2*n:3*n], b[3*n:], a[0], a[1], a[2], a[3]) })
				requireSameBits(t, name, got, want)
			}
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

func TestTrainKernelOracleScale(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range trainLens {
		for _, planted := range []bool{false, true} {
			g := randSlice(rng, n)
			if planted {
				plantSpecials(rng, g)
			}
			for _, s := range append([]float64{0.37, 1e-320}, trainSpecials...) {
				got, want := slices.Clone(g), slices.Clone(g)
				if !ScaleFast(got, s) {
					t.Skip("no training kernels on this machine or build")
				}
				for i := range want {
					want[i] *= s
				}
				requireSameBits(t, fmt.Sprintf("scale n=%d planted=%v s=%g", n, planted, s), got, want)
			}
		}
	}
}

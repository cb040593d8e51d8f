package tensor

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// fma32 is the correctly rounded float32 x*y + z. The product of two float32s
// is exact in float64; the sum is rounded to odd there (what the addition
// dropped is kept as a sticky last bit), and with 53 - 24 spare bits the
// narrowing is then the one rounding a fused multiply-add makes.
func fma32(x, y, z float32) float32 {
	p := float64(float64(x) * float64(y))
	s := float64(p + float64(z))
	zz := s - p
	lost := (p - (s - zz)) + (float64(z) - zz) // TwoSum: p + z = s + lost exactly
	if lost != 0 && lost == lost && !math.IsInf(s, 0) && math.Float64bits(s)&1 == 0 {
		if (lost > 0) == (s > 0) {
			s = math.Float64frombits(math.Float64bits(s) + 1)
		} else {
			s = math.Float64frombits(math.Float64bits(s) - 1)
		}
	}
	return float32(s)
}

// fmaChain is the panel tier's per-element contract in scalar code at either
// precision: out[i][j] takes a[i][p]*b[p][j] by fused multiply-add, p ascending.
func fmaChain[T float32 | float64](out, a, b []T, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := out[i*n+j]
			for p := 0; p < k; p++ {
				if unsafe.Sizeof(s) == 8 {
					s = T(math.FMA(float64(a[i*k+p]), float64(b[p*n+j]), float64(s)))
				} else {
					s = T(fma32(float32(a[i*k+p]), float32(b[p*n+j]), float32(s)))
				}
			}
			out[i*n+j] = s
		}
	}
}

func TestFMAPanelsMatchFMAReference(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 2, 3, 4, 5, 8, 9, 64} {
		for _, k := range []int{1, 3, 16, 33} {
			for _, n := range []int{1, 7, 8, 15, 16, 17, 32, 65} {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				got := randSlice(rng, m*n)
				want := append([]float64(nil), got...)
				accumPanels(got, a, b, m, k, n)
				fmaChain(want, a, b, m, k, n)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("m=%d k=%d n=%d: out[%d] = %x, want %x",
							m, k, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestFMAPanelsBatchComposition is the determinism cornerstone: running the
// same row through the 4-row tile, the 1-row remainder, or any stacking must
// produce identical bits, or sweep reports would vary with batch size.
func TestFMAPanelsBatchComposition(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(22))
	m, k, n := 13, 24, 37
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	batched := make([]float64, m*n)
	accumPanels(batched, a, b, m, k, n)
	for i := 0; i < m; i++ {
		solo := make([]float64, n)
		accumPanels(solo, a[i*k:(i+1)*k], b, 1, k, n)
		for j := range solo {
			if math.Float64bits(solo[j]) != math.Float64bits(batched[i*n+j]) {
				t.Fatalf("row %d col %d: solo %x != batched %x",
					i, j, math.Float64bits(solo[j]), math.Float64bits(batched[i*n+j]))
			}
		}
	}
}

func TestVactAccuracy(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	xs := []float64{0, 1, -1, 0.5, -0.5, 3.7, -3.7, 12, -12, 39, -39, 45, -45,
		700, -700, 1000, -1000, 1e-12, -1e-12, 87.3, -87.3}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.NormFloat64()*20)
	}

	relErr := func(got, want float64) float64 {
		if want == 0 {
			return math.Abs(got)
		}
		return math.Abs(got-want) / math.Max(math.Abs(want), 1e-300)
	}

	// exp(x - bias)
	for _, bias := range []float64{0, 2.5, -1.25} {
		buf := append([]float64(nil), xs...)
		vact(buf, vactExp, bias)
		for i, x := range xs {
			want := math.Exp(x - bias)
			if math.IsInf(want, 1) {
				continue // clamped to exp(708) by design
			}
			if relErr(buf[i], want) > 1e-12 {
				t.Fatalf("exp(%g-%g) = %g, want %g", x, bias, buf[i], want)
			}
		}
	}

	// sigmoid
	buf := append([]float64(nil), xs...)
	vact(buf, vactSigmoid, 0)
	for i, x := range xs {
		want := 1 / (1 + math.Exp(-x))
		if relErr(buf[i], want) > 1e-12 && math.Abs(buf[i]-want) > 1e-15 {
			t.Fatalf("sigmoid(%g) = %g, want %g", x, buf[i], want)
		}
	}

	// tanh: saturates exactly to ±1 past the clamp
	buf = append([]float64(nil), xs...)
	vact(buf, vactTanh, 0)
	for i, x := range xs {
		want := math.Tanh(x)
		if relErr(buf[i], want) > 1e-12 && math.Abs(buf[i]-want) > 1e-15 {
			t.Fatalf("tanh(%g) = %g, want %g", x, buf[i], want)
		}
	}
}

// TestVactPropagatesNaN: the vector activations clamp their argument, and a
// clamp that swallowed NaN would launder a poisoned weight into a
// healthy-looking probability inside the network (an LSTM gate), where the
// ScreenScores health screen on the outputs can no longer see it.
func TestVactPropagatesNaN(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	for _, n := range []int{1, 8, 11} {
		for name, f := range map[string]func([]float64){
			"exp":     func(r []float64) { vact(r, vactExp, 0.5) },
			"sigmoid": func(r []float64) { vact(r, vactSigmoid, 0) },
			"tanh":    func(r []float64) { vact(r, vactTanh, 0) },
			"relu":    func(r []float64) { vact(r, vactReLU, 0) },
		} {
			row := make([]float64, n)
			row[n-1] = math.NaN()
			f(row)
			if !math.IsNaN(row[n-1]) {
				t.Fatalf("%s n=%d: NaN came out as %g", name, n, row[n-1])
			}
			for _, v := range row[:n-1] {
				if math.IsNaN(v) {
					t.Fatalf("%s n=%d: NaN leaked into a neighbouring lane", name, n)
				}
			}
		}
	}
}

func TestGemmBatchBiasActMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, act := range []Act{ActNone, ActReLU, ActSigmoid, ActTanh} {
		for _, m := range []int{1, 5, 8, 64} {
			k, n := 23, 41
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			bias := randSlice(rng, n)
			got := make([]float64, m*n)
			want := make([]float64, m*n)
			gemmBatchBiasAct(got, a, b, bias, m, k, n, act)
			gemmBiasAct(want, a, b, bias, m, k, n, act)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("act=%d m=%d: out[%d] = %g, want %g (diff %g)",
						act, m, i, got[i], want[i], got[i]-want[i])
				}
			}
		}
	}
}

// referenceGemm2BatchBiasAct and referenceGemm2BiasAct are the fused
// two-product gate kernels, act(a1@b1 + a2@b2 + bias), that LinearAccum's two
// calls replaced — kept verbatim as its oracle.
func referenceGemm2BatchBiasAct[T float32 | float64](out, a1, b1, a2, b2, bias []T, m, k1, k2, n int, act Act) {
	if m == 0 || n == 0 {
		return
	}
	if !batchKernelAvailable() {
		referenceGemm2BiasAct(out, a1, b1, a2, b2, bias, m, k1, k2, n, act)
		return
	}
	initRowsBias(out, bias, m, n)
	if k1 > 0 {
		accumPanels(out, a1, b1, m, k1, n)
	}
	if k2 > 0 {
		accumPanels(out, a2, b2, m, k2, n)
	}
	ApplyActFast(out[:m*n], act)
}

func referenceGemm2BiasAct[T float32 | float64](out, a1, b1, a2, b2, bias []T, m, k1, k2, n int, act Act) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		maddPanel(orow, a1[i*k1:(i+1)*k1], b1, n)
		maddPanel(orow, a2[i*k2:(i+1)*k2], b2, n)
		if bias != nil {
			for j, bv := range bias {
				orow[j] += bv
			}
		}
		applyAct(orow, act)
	}
}

// randDense is a rows x cols arena tensor of standard normals.
func randDense[T float32 | float64](c *Ctx, rng *rand.Rand, rows, cols int) *Dense[T] {
	d := zeros[T](c, rows, cols)
	for i := range d.Data {
		d.Data[i] = T(rng.NormFloat64())
	}
	return d
}

// TestLinearAccumMatchesFusedGate: opening a gate sum with one product and
// closing it with the other gives the fused kernel's bits on each kernel
// family, at both precisions — the link that lets nn's LSTM oracle be written
// on LinearAccum.
func TestLinearAccumMatchesFusedGate(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		linearAccumMatchesFusedGate[float64](t)
		linearAccumMatchesFusedGate[float32](t)
	})
}

func linearAccumMatchesFusedGate[T float32 | float64](t *testing.T) {
	c := NewCtx()
	rng := rand.New(rand.NewSource(25))
	for _, m := range []int{1, 2, 5, 8} {
		for _, k1 := range []int{1, 9, 32} {
			for _, k2 := range []int{1, 7, 64} {
				for _, n := range []int{1, 7, 64, 100} {
					x1, w1, x2, w2 := randDense[T](c, rng, m, k1), randDense[T](c, rng, k1, n), randDense[T](c, rng, m, k2), randDense[T](c, rng, k2, n)
					bias := randDense[T](c, rng, 1, n)
					for _, act := range []Act{ActSigmoid, ActTanh} {
						got := LinearAccum(c, LinearAccum(c, nil, x1, w1, bias), x2, w2, bias)
						ApplyActFast(got, act)
						want := make([]T, m*n)
						referenceGemm2BatchBiasAct(want, x1.Data, w1.Data, x2.Data, w2.Data, bias.Data, m, k1, k2, n, act)
						for i := range want {
							if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
								t.Fatalf("%T m=%d k1=%d k2=%d n=%d act=%d: out[%d] = %v, fused gate %v",
									got[i], m, k1, k2, n, act, i, got[i], want[i])
							}
						}
					}
					c.Reset()
				}
			}
		}
	}
}

// TestGateSumKernelFamiliesAgree: the panel kernels and the scalar fallback
// place the gate bias differently and round differently, within the tiers'
// tolerances.
func TestGateSumKernelFamiliesAgree(t *testing.T) {
	gateSumKernelFamiliesAgree[float64](t, 1e-9)
	gateSumKernelFamiliesAgree[float32](t, 1e-4)
}

func gateSumKernelFamiliesAgree[T float32 | float64](t *testing.T, tol float64) {
	c := NewCtx()
	rng := rand.New(rand.NewSource(35))
	m, k1, k2, n := 8, 12, 19, 31
	x1, w1, x2, w2 := randDense[T](c, rng, m, k1), randDense[T](c, rng, k1, n), randDense[T](c, rng, m, k2), randDense[T](c, rng, k2, n)
	bias := randDense[T](c, rng, 1, n)
	for _, act := range []Act{ActNone, ActSigmoid, ActTanh} {
		sum := func() []T {
			out := LinearAccum(c, LinearAccum(c, nil, x1, w1, bias), x2, w2, bias)
			ApplyActFast(out, act)
			return out
		}
		got := sum()
		var want []T
		portable(func() { want = sum() })
		for i := range got {
			if math.Abs(float64(got[i])-float64(want[i])) > tol {
				t.Fatalf("%T act=%d: out[%d] = %v, scalar kernels %v", got[i], act, i, got[i], want[i])
			}
		}
	}
}

func TestSoftmaxInPlaceFastMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{1, 2, 7, 8, 9, 16, 33} {
		row := randSlice(rng, n)
		for i := range row {
			row[i] *= 10
		}
		want := append([]float64(nil), row...)
		kernelSoftmaxRows(row, 1, n)
		softmaxInPlace(want)
		for i := range row {
			if math.Abs(row[i]-want[i]) > 1e-12 {
				t.Fatalf("n=%d: softmax[%d] = %g, want %g", n, i, row[i], want[i])
			}
		}
	}
}

// kernelPaths runs f on the machine's own kernels and again with the
// portable scalar fallback forced (what non-amd64 and pre-AVX-512 builds
// always run), so both keep the same contracts.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("native", f)
	t.Run("portable", func(t *testing.T) {
		defer ForcePortableKernels()()
		f(t)
	})
}

// TestOpsSequentialBatchIdentical pins the float64 tier's determinism
// contract at the op level: a row scored alone (the sequential case) and the
// same row inside a stacked batch produce identical bits, at 0 allocs/op.
func TestOpsSequentialBatchIdentical(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		c := NewCtx()
		rng := rand.New(rand.NewSource(28))
		m, k, n := 9, 17, 29
		x := view(c, m, k, randSlice(rng, m*k))
		h := view(c, m, n, randSlice(rng, m*n))
		w := view(c, k, n, randSlice(rng, k*n))
		u := view(c, n, n, randSlice(rng, n*n))
		b := view(c, 1, n, randSlice(rng, n))
		chain := func(x, h *Tensor) *Tensor {
			g := view(c, x.Rows, n, LinearAccum(c, LinearAccum(c, nil, x, w, b), h, u, b))
			ApplyActFast(g.Data, ActTanh)
			return SigmoidInPlace(c, LinearAct(c, g, u, b, ActReLU))
		}
		batched := chain(x, h)
		for i := 0; i < m; i++ {
			solo := chain(view(c, 1, k, x.Data[i*k:(i+1)*k]), view(c, 1, n, h.Data[i*n:(i+1)*n]))
			for j := range solo.Data {
				if math.Float64bits(solo.Data[j]) != math.Float64bits(batched.Data[i*n+j]) {
					t.Fatalf("row %d col %d: solo %x != batched %x",
						i, j, math.Float64bits(solo.Data[j]), math.Float64bits(batched.Data[i*n+j]))
				}
			}
		}
		run := func() {
			c.Reset()
			g := chain(x, h)
			AttentionBlocks(c, g, g, g, 3, 0.5)
		}
		run() // warm the slabs
		run()
		if avg := testing.AllocsPerRun(50, run); avg != 0 {
			t.Fatalf("op chain allocates %v per run, want 0", avg)
		}
	})
}

func TestAttentionBlocksCompositionIndependent(t *testing.T) {
	kernelPaths(t, testAttentionBlocksCompositionIndependent)
}

func testAttentionBlocksCompositionIndependent(t *testing.T) {
	c := NewCtx()
	rng := rand.New(rand.NewSource(27))
	blocks, tt, d := 6, 5, 16
	q := view(c, blocks*tt, d, randSlice(rng, blocks*tt*d))
	k := view(c, blocks*tt, d, randSlice(rng, blocks*tt*d))
	v := view(c, blocks*tt, d, randSlice(rng, blocks*tt*d))
	full := AttentionBlocks(c, q, k, v, blocks, 0.25)
	for blk := 0; blk < blocks; blk++ {
		qb := view(c, tt, d, q.Data[blk*tt*d:(blk+1)*tt*d])
		kb := view(c, tt, d, k.Data[blk*tt*d:(blk+1)*tt*d])
		vb := view(c, tt, d, v.Data[blk*tt*d:(blk+1)*tt*d])
		solo := AttentionBlocks(c, qb, kb, vb, 1, 0.25)
		for i := range solo.Data {
			gotB := math.Float64bits(full.Data[blk*tt*d+i])
			soloB := math.Float64bits(solo.Data[i])
			if gotB != soloB {
				t.Fatalf("block %d elem %d: %x != %x", blk, i, soloB, gotB)
			}
		}
	}
	if batchKernelAvailable() {
		return
	}
	// The portable path must equal the scalar score/softmax/AV kernels bit
	// for bit.
	for blk := 0; blk < blocks; blk++ {
		kT := make([]float64, d*tt)
		for j := 0; j < tt; j++ {
			for p := 0; p < d; p++ {
				kT[p*tt+j] = k.Data[(blk*tt+j)*d+p] * 0.25
			}
		}
		scores := make([]float64, tt*tt)
		gemm(scores, q.Data[blk*tt*d:(blk+1)*tt*d], kT, tt, d, tt)
		for r := 0; r < tt; r++ {
			softmaxInPlace(scores[r*tt : (r+1)*tt])
		}
		ref := make([]float64, tt*d)
		gemm(ref, scores, v.Data[blk*tt*d:(blk+1)*tt*d], tt, tt, d)
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(full.Data[blk*tt*d+i]) {
				t.Fatalf("portable block %d elem %d diverges from the scalar attention kernels", blk, i)
			}
		}
	}
}

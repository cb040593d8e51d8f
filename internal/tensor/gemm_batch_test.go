package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fmaRef mirrors the panel kernels' per-element contract exactly: an
// ascending-p chain of fused multiply-adds. On AVX-512F machines fmaPanels
// must match it bit for bit.
func fmaRef(out, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := out[i*n+j]
			for p := 0; p < k; p++ {
				s = math.FMA(a[i*k+p], b[p*n+j], s)
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
				fmaPanels(got, a, b, m, k, n)
				fmaRef(want, a, b, m, k, n)
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
	fmaPanels(batched, a, b, m, k, n)
	for i := 0; i < m; i++ {
		solo := make([]float64, n)
		fmaPanels(solo, a[i*k:(i+1)*k], b, 1, k, n)
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

func TestGemm2BatchBiasActMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m, k1, k2, n := 8, 12, 19, 31
	a1 := randSlice(rng, m*k1)
	b1 := randSlice(rng, k1*n)
	a2 := randSlice(rng, m*k2)
	b2 := randSlice(rng, k2*n)
	bias := randSlice(rng, n)
	for _, act := range []Act{ActNone, ActSigmoid, ActTanh} {
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		gemm2BatchBiasAct(got, a1, b1, a2, b2, bias, m, k1, k2, n, act)
		gemm2BiasAct(want, a1, b1, a2, b2, bias, m, k1, k2, n, act)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("act=%d: out[%d] = %g, want %g", act, i, got[i], want[i])
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
		softmaxRows(row, make([]float64, n), 1, n, false)
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
			g := Linear2Act(c, x, w, h, u, b, ActTanh)
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
			AttentionBlocks(c, g, g, g, 3, 0.5, false)
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
	for _, exact := range []bool{false, true} {
		full := AttentionBlocks(c, q, k, v, blocks, 0.25, exact)
		for blk := 0; blk < blocks; blk++ {
			qb := view(c, tt, d, q.Data[blk*tt*d:(blk+1)*tt*d])
			kb := view(c, tt, d, k.Data[blk*tt*d:(blk+1)*tt*d])
			vb := view(c, tt, d, v.Data[blk*tt*d:(blk+1)*tt*d])
			solo := AttentionBlocks(c, qb, kb, vb, 1, 0.25, exact)
			for i := range solo.Data {
				gotB := math.Float64bits(full.Data[blk*tt*d+i])
				soloB := math.Float64bits(solo.Data[i])
				if gotB != soloB {
					t.Fatalf("exact=%v block %d elem %d: %x != %x", exact, blk, i, soloB, gotB)
				}
			}
		}
		// exact=true must equal the scalar score/softmax/AV kernels bit for
		// bit — the sequence int8 attention is pinned to on every machine.
		if exact {
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
						t.Fatalf("exact block %d elem %d diverges from the scalar attention kernels", blk, i)
					}
				}
			}
		}
	}
}

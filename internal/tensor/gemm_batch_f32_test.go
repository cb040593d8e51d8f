package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randSliceF32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// gemmRefF64 accumulates the f32 operands in float64 — the high-precision
// reference the f32 kernels (scalar and vector alike) are bounded against.
func gemmRefF64(out []float64, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := out[i*n+j]
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			out[i*n+j] = s
		}
	}
}

// f32TolFor bounds the accumulated rounding error of a k-term f32 dot
// product against the f64 reference: each of the k adds contributes at most
// one half-ulp of the running magnitude.
func f32TolFor(k int, magnitude float64) float64 {
	return float64(k+2) * magnitude * 0x1p-23
}

func TestFMAPanelsF32MatchReference(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{1, 2, 3, 4, 5, 8, 9, 64} {
		for _, k := range []int{1, 3, 16, 33} {
			for _, n := range []int{1, 7, 15, 16, 17, 31, 32, 33, 64, 65} {
				a := randSliceF32(rng, m*k)
				b := randSliceF32(rng, k*n)
				got := randSliceF32(rng, m*n)
				want := make([]float64, m*n)
				for i, v := range got {
					want[i] = float64(v)
				}
				accumPanels(got, a, b, m, k, n)
				gemmRefF64(want, a, b, m, k, n)
				tol := f32TolFor(k, 4*math.Sqrt(float64(k)))
				for i := range got {
					if math.Abs(float64(got[i])-want[i]) > tol {
						t.Fatalf("m=%d k=%d n=%d: out[%d] = %g, want %g (tol %g)",
							m, k, n, i, got[i], want[i], tol)
					}
				}
			}
		}
	}
}

// TestFMAPanelsF32BatchComposition mirrors the f64 cornerstone: any stacking
// of rows through the 4-row tile and 1-row remainder must be bit-identical,
// or f32 sweep reports would vary with batch size.
func TestFMAPanelsF32BatchComposition(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(32))
	m, k, n := 13, 24, 37
	a := randSliceF32(rng, m*k)
	b := randSliceF32(rng, k*n)
	batched := make([]float32, m*n)
	accumPanels(batched, a, b, m, k, n)
	for i := 0; i < m; i++ {
		solo := make([]float32, n)
		accumPanels(solo, a[i*k:(i+1)*k], b, 1, k, n)
		for j := range solo {
			if math.Float32bits(solo[j]) != math.Float32bits(batched[i*n+j]) {
				t.Fatalf("row %d col %d: solo %x != batched %x",
					i, j, math.Float32bits(solo[j]), math.Float32bits(batched[i*n+j]))
			}
		}
	}
}

func TestVactF32Accuracy(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	xs := []float32{0, 1, -1, 0.5, -0.5, 3.7, -3.7, 12, -12, 39, -39, 45, -45,
		86, -86, 100, -100, 1e-12, -1e-12, 40.5, -40.5}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 200; i++ {
		xs = append(xs, float32(rng.NormFloat64()*20))
	}

	relErr := func(got float32, want float64) float64 {
		if want == 0 {
			return math.Abs(float64(got))
		}
		return math.Abs(float64(got)-want) / math.Max(math.Abs(want), 1e-300)
	}

	// exp(x - bias): vector kernel clamps at ±87, inside f32 range.
	for _, bias := range []float32{0, 2.5, -1.25} {
		buf := append([]float32(nil), xs...)
		vact(buf, vactExp, bias)
		for i, x := range xs {
			arg := x - bias // the kernel subtracts in f32; mirror that
			if arg > 87 || arg < -87 {
				continue // clamped to ±87 by design
			}
			want := math.Exp(float64(arg))
			if relErr(buf[i], want) > 1e-6 {
				t.Fatalf("exp(%g-%g) = %g, want %g", x, bias, buf[i], want)
			}
		}
	}

	// sigmoid
	buf := append([]float32(nil), xs...)
	vact(buf, vactSigmoid, 0)
	for i, x := range xs {
		want := 1 / (1 + math.Exp(-float64(x)))
		if relErr(buf[i], want) > 1e-6 && math.Abs(float64(buf[i])-want) > 1e-9 {
			t.Fatalf("sigmoid(%g) = %g, want %g", x, buf[i], want)
		}
	}

	// tanh: saturates exactly to ±1 past the clamp
	buf = append([]float32(nil), xs...)
	vact(buf, vactTanh, 0)
	for i, x := range xs {
		want := math.Tanh(float64(x))
		if relErr(buf[i], want) > 1e-6 && math.Abs(float64(buf[i])-want) > 1e-9 {
			t.Fatalf("tanh(%g) = %g, want %g", x, buf[i], want)
		}
	}
}

func TestGemmBatchBiasActF32MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, act := range []Act{ActNone, ActReLU, ActSigmoid, ActTanh} {
		for _, m := range []int{1, 5, 8, 64} {
			k, n := 23, 41
			a := randSliceF32(rng, m*k)
			b := randSliceF32(rng, k*n)
			bias := randSliceF32(rng, n)
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			gemmBatchBiasAct(got, a, b, bias, m, k, n, act)
			gemmBiasAct(want, a, b, bias, m, k, n, act)
			for i := range got {
				if math.Abs(float64(got[i])-float64(want[i])) > 1e-4 {
					t.Fatalf("act=%d m=%d: out[%d] = %g, want %g (diff %g)",
						act, m, i, got[i], want[i], got[i]-want[i])
				}
			}
		}
	}
}

func TestSoftmaxInPlaceFastF32Matches(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{1, 2, 7, 15, 16, 17, 33} {
		row := randSliceF32(rng, n)
		for i := range row {
			row[i] *= 10
		}
		want := append([]float32(nil), row...)
		kernelSoftmaxRows(row, 1, n)
		softmaxInPlace(want)
		var sum float64
		for i := range row {
			if math.Abs(float64(row[i])-float64(want[i])) > 1e-6 {
				t.Fatalf("n=%d: softmax[%d] = %g, want %g", n, i, row[i], want[i])
			}
			sum += float64(row[i])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("n=%d: softmax sums to %g", n, sum)
		}
	}
}

// TestVactF32PropagatesNaN is TestVactPropagatesNaN for the f32 kernel.
func TestVactF32PropagatesNaN(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	nan := float32(math.NaN())
	for _, n := range []int{1, 16, 19} {
		for name, f := range map[string]func([]float32){
			"exp":     func(r []float32) { vact(r, vactExp, 0.5) },
			"sigmoid": func(r []float32) { vact(r, vactSigmoid, 0) },
			"tanh":    func(r []float32) { vact(r, vactTanh, 0) },
			"relu":    func(r []float32) { vact(r, vactReLU, 0) },
		} {
			row := make([]float32, n)
			row[n-1] = nan
			f(row)
			if !math.IsNaN(float64(row[n-1])) {
				t.Fatalf("%s n=%d: NaN came out as %g", name, n, row[n-1])
			}
			for _, v := range row[:n-1] {
				if math.IsNaN(float64(v)) {
					t.Fatalf("%s n=%d: NaN leaked into a neighbouring lane", name, n)
				}
			}
		}
	}
}

func TestAttentionBlocksF32CompositionIndependent(t *testing.T) {
	c := NewCtx()
	rng := rand.New(rand.NewSource(37))
	blocks, tt, d := 6, 5, 16
	qd := randSliceF32(rng, blocks*tt*d)
	kd := randSliceF32(rng, blocks*tt*d)
	vd := randSliceF32(rng, blocks*tt*d)
	q := view(c, blocks*tt, d, qd)
	k := view(c, blocks*tt, d, kd)
	v := view(c, blocks*tt, d, vd)
	full := AttentionBlocks(c, q, k, v, blocks, 0.25)
	for blk := 0; blk < blocks; blk++ {
		qb := view(c, tt, d, qd[blk*tt*d:(blk+1)*tt*d])
		kb := view(c, tt, d, kd[blk*tt*d:(blk+1)*tt*d])
		vb := view(c, tt, d, vd[blk*tt*d:(blk+1)*tt*d])
		solo := AttentionBlocks(c, qb, kb, vb, 1, 0.25)
		for i := range solo.Data {
			gotB := math.Float32bits(full.Data[blk*tt*d+i])
			soloB := math.Float32bits(solo.Data[i])
			if gotB != soloB {
				t.Fatalf("block %d elem %d: %x != %x", blk, i, soloB, gotB)
			}
		}
	}
}

// TestF32OpsSequentialBatchIdentical pins the f32 tier's determinism
// contract at the op level: a row scored alone and the same row scored
// inside a stacked batch produce identical bits.
func TestF32OpsSequentialBatchIdentical(t *testing.T) {
	c := NewCtx()
	rng := rand.New(rand.NewSource(38))
	m, k, n := 9, 17, 29
	xd := randSliceF32(rng, m*k)
	wd := randSliceF32(rng, k*n)
	bd := randSliceF32(rng, n)
	x := view(c, m, k, xd)
	w := view(c, k, n, wd)
	b := view(c, 1, n, bd)
	batched := LinearAct(c, x, w, b, ActSigmoid)
	for i := 0; i < m; i++ {
		solo := LinearAct(c, view(c, 1, k, xd[i*k:(i+1)*k]), w, b, ActSigmoid)
		for j := range solo.Data {
			if math.Float32bits(solo.Data[j]) != math.Float32bits(batched.Data[i*n+j]) {
				t.Fatalf("row %d col %d: solo %x != batched %x",
					i, j, math.Float32bits(solo.Data[j]), math.Float32bits(batched.Data[i*n+j]))
			}
		}
	}
}

// TestF32OpsZeroAlloc pins the arena contract for the new tier: a full
// f32 op chain allocates nothing per run once the arena is warm.
func TestF32OpsZeroAlloc(t *testing.T) {
	c := NewCtx()
	rng := rand.New(rand.NewSource(39))
	m, k, n := 8, 16, 24
	xd := randSliceF32(rng, m*k)
	wd := randSliceF32(rng, k*n)
	bd := randSliceF32(rng, n)
	gd := randSliceF32(rng, k)
	run := func() {
		c.Reset()
		x := view(c, m, k, xd)
		w := view(c, k, n, wd)
		b := view(c, 1, n, bd)
		gain := view(c, 1, k, gd)
		h := AddLayerNorm(c, x, x, gain, gain, 1e-5)
		h = LinearAct(c, h, w, b, ActReLU)
		att := AttentionBlocks(c, x, x, x, 2, 0.5)
		_ = MeanRowsBatch(c, att, 2)
		_ = WidenCtx(c, h)
	}
	run() // warm the slabs
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("f32 op chain allocates %v per run, want 0", avg)
	}
}

// TestArenaF32Slabs covers the new slab classes directly.
func TestArenaF32Slabs(t *testing.T) {
	c := NewCtx()
	p := Ptrs[float32](c, 3)
	if len(p) != 3 || p[0] != nil {
		t.Fatalf("F32Ptrs(3) = %v", p)
	}
	zt := ZerosCtx[float32](c, 3, 4)
	if zt.Rows != 3 || zt.Cols != 4 || len(zt.Data) != 12 {
		t.Fatalf("ZerosF32 shape %dx%d len %d", zt.Rows, zt.Cols, len(zt.Data))
	}
	c.Reset()
	// nil-ctx accessors still hand out plain slices
	var nc *Ctx
	if got := Ptrs[float32](nc, 2); len(got) != 2 {
		t.Fatalf("nil F32Ptrs len %d", len(got))
	}
}

// TestArenaHeadersCarryNoGraph pins what arena.header relies on when it
// skips zeroing the header slot: no ctx op, at either precision, ever writes
// an arena header's graph fields, so after any number of Reset rounds every
// slot is still zero apart from Rows/Cols/Data.
func TestArenaHeadersCarryNoGraph(t *testing.T) {
	c := NewCtx()
	for round := 0; round < 3; round++ {
		c.Reset()
		arenaOpChain[float64](c)
		arenaOpChain[float32](c)
	}
	checkHeadersClean(t, "f64", c.f64.hdrs.buf)
	checkHeadersClean(t, "f32", c.f32.hdrs.buf)
}

// arenaOpChain runs every header-producing ctx op once at element type T.
func arenaOpChain[T float32 | float64](c *Ctx) {
	const blocks, rows, d = 2, 4, 8
	x := ZerosCtx[T](c, blocks*rows, d)
	for i := range x.Data {
		x.Data[i] = T(i%7) - 3
	}
	w := ZerosCtx[T](c, d, d)
	b := ZerosCtx[T](c, 1, d)
	pos := ZerosCtx[T](c, rows, d)
	h := AddLayerNorm(c, x, x, b, b, 1e-5)
	h = LinearAct(c, h, w, b, ActReLU)
	h = view(c, h.Rows, d, LinearAccum(c, LinearAccum(c, nil, h, w, b), x, w, b))
	h = SigmoidInPlace(c, h)
	h = AddPosBatch(c, h, pos, blocks)
	h = AttentionBlocks(c, h, h, h, blocks, 0.5)
	h = AddRowPerBlock(c, h, w, []int{1, 2}, blocks)
	h = ConcatRowsCtx(c, h, x, blocks)
	h = EmbeddingPosBatch(c, h, []int{0, 1, 2, 3, 3, 2, 1, 0}, pos, blocks)
	AttentionBlocksInto(c, UninitCtx[T](c, x.Rows, 2*d), d, x, x, x, blocks, 0.5)
	m := MeanRowsBatch(c, h, blocks)
	ps := Ptrs[T](c, 2)
	ps[0], ps[1] = m, ConcatCols2(c, m, m)
	_ = ConcatColsCtx(c, ps)
	_ = EmbeddingLookupCtx(c, w, []int{0, 3})
	_ = NarrowCtx[T](c, WidenCtx(c, m))
}

func checkHeadersClean[T float32 | float64](t *testing.T, tier string, hdrs []Dense[T]) {
	t.Helper()
	if len(hdrs) == 0 {
		t.Fatalf("%s: no header slab to inspect", tier)
	}
	for i := range hdrs {
		h := &hdrs[i]
		if h.Grad != nil || h.requiresGrad || h.mark || h.parents != nil || h.backward != nil || h.tape != nil {
			t.Fatalf("%s header %d carries graph state: %+v", tier, i, *h)
		}
	}
}

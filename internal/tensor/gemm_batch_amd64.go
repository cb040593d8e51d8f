//go:build amd64

package tensor

import "unsafe"

// useAVX512F gates the batched-GEMM and vector row kernels of both float
// tiers (both are plain AVX-512F, so one CPUID answer covers them). It is a
// variable rather than a constant so tests can force the portable scalar
// path and compare both tiers on the same machine.
var useAVX512F = hasAVX512F()

// Every kernel below is generated, both dtypes from one template each, into
// gemm_batch_amd64.s and gemm_batch_f32_amd64.s by
// internal/tensor/internal/kernelgen (DESIGN.md §8, "Kernel generator"): edit
// the template there and rerun its test with -update, never the .s files.

// fmaPanel4Asm is implemented in gemm_batch_amd64.s: out = seed + a @ b for
// four consecutive rows of the activation block (out rows stride n, a rows
// stride k), walking b in 16-column zmm tiles so one weight load feeds four
// FMA chains. rows is 4, or 2 for a two-row remainder. Row r's seed starts
// seedStride elements after row r-1's: n with seed = out accumulates onto out,
// 0 puts one bias row under every row; a nil seed starts every chain at +0.
//
//mpgraph:noalloc
//go:noescape
func fmaPanel4Asm(out, a, b, seed *float64, k, n, seedStride, rows int64)

// fmaPanel4F32Asm (gemm_batch_f32_amd64.s) is the f32 twin of fmaPanel4Asm,
// over 32-column zmm tile pairs.
//
//mpgraph:noalloc
//go:noescape
func fmaPanel4F32Asm(out, a, b, seed *float32, k, n, seedStride, rows int64)

// fmaPanel1Asm is the single-row remainder kernel (seed: that row's, or nil);
// per element it executes the identical FMA sequence of one four-row panel
// row, so batch composition never changes any row's bits.
//
//mpgraph:noalloc
//go:noescape
func fmaPanel1Asm(out, a, b, seed *float64, k, n int64)

// fmaPanel1F32Asm is the f32 twin of fmaPanel1Asm.
//
//mpgraph:noalloc
//go:noescape
func fmaPanel1F32Asm(out, a, b, seed *float32, k, n int64)

// fmaPanel9Asm is the window-row kernel: out = seed + a @ b for WindowRows
// (nine) consecutive rows, seeded as in fmaPanel4Asm, in 9 x 2 zmm column tiles while more than one register of
// columns remains and one 9 x 1 tile over a remainder of 1..8. Per element it
// is fmaPanel4Asm's FMA sequence.
//
//mpgraph:noalloc
//go:noescape
func fmaPanel9Asm(out, a, b, seed *float64, k, n, seedStride int64)

// fmaPanel9F32Asm is the f32 twin of fmaPanel9Asm (remainder of 1..16).
//
//mpgraph:noalloc
//go:noescape
func fmaPanel9F32Asm(out, a, b, seed *float32, k, n, seedStride int64)

// vactAVX512 applies an elementwise activation in place over n values.
// mode 0 = exp(x-bias), 1 = sigmoid, 2 = tanh, 3 = ReLU.
//
//mpgraph:noalloc
//go:noescape
func vactAVX512(p *float64, n, mode int64, bias float64)

// vactF32AVX512 is the f32 twin of vactAVX512.
//
//mpgraph:noalloc
//go:noescape
func vactF32AVX512(p *float32, n, mode int64, bias float32)

// attnBlockAsm computes one attention block, out = softmax(q·(k·scale)ᵀ)·v
// for q, k [t x d] and v, out [t x dv] (out rows ostride elements apart), in
// one pass: Kᵀ·scale, the scores and
// the probabilities stay in scr ((d+3)·tp elements, tp = t rounded up to a
// whole zmm) and registers. Each step is the operation sequence of the
// panel-kernel / row-softmax composition it replaced (DESIGN.md §8).
//
//mpgraph:noalloc
//go:noescape
func attnBlockAsm(out, q, k, v, scr *float64, t, d, dv, ostride int64, scale float64)

// attnBlockF32Asm is the f32 twin of attnBlockAsm.
//
//mpgraph:noalloc
//go:noescape
func attnBlockF32Asm(out, q, k, v, scr *float32, t, d, dv, ostride int64, scale float32)

// vaddLayerNormAVX512 writes LayerNorm(x + y) row by row into out; y may be
// nil (plain LayerNorm). rows and cols are >= 1.
//
//mpgraph:noalloc
//go:noescape
func vaddLayerNormAVX512(out, x, y, gain, bias *float64, rows, cols int64, eps float64)

// vaddLayerNormF32AVX512 is the f32 twin of vaddLayerNormAVX512.
//
//mpgraph:noalloc
//go:noescape
func vaddLayerNormF32AVX512(out, x, y, gain, bias *float32, rows, cols int64, eps float32)

// lstmStepsAsm runs all steps of one sequence's LSTM recurrence
// (LSTMSteps): per step and gate, the step's p row seeds the accumulators,
// h·Wh is the ascending-k FMA chain onto them, then the gates' sigmoid/tanh,
// c = f·c + i·g and h = tanh(c)·o, in registers. h, hs and c are zero on
// entry; the final hidden state lands in h.
//
//mpgraph:noalloc
//go:noescape
func lstmStepsAsm(h, hs, c, pi, pf, po, pg, wi, wf, wo, wg *float64, steps, hidden int64)

// lstmStepsF32Asm is the f32 twin of lstmStepsAsm.
//
//mpgraph:noalloc
//go:noescape
func lstmStepsF32Asm(h, hs, c, pi, pf, po, pg, wi, wf, wo, wg *float32, steps, hidden int64)

// vrowsAsm writes out row r = x row r (+ y row r) for rows rows of cols
// (>= 1) elements: x row r is table row ids[r] when ids is non-nil, else the
// r-th row of x; y row r starts r·ystride elements into y (y nil: no add,
// ystride 0); out row r starts r·opitch elements into out.
//
//mpgraph:noalloc
//go:noescape
func vrowsAsm(out, x, y *float64, ids *int, rows, cols, opitch, ystride int64)

// vrowsF32Asm is the f32 twin of vrowsAsm.
//
//mpgraph:noalloc
//go:noescape
func vrowsF32Asm(out, x, y *float32, ids *int, rows, cols, opitch, ystride int64)

// vmeanRowsAsm writes out = Σ_r a[r]·inv over rows >= 1 rows of cols >= 1,
// from +0 in row order, a multiply then an add per element.
//
//mpgraph:noalloc
//go:noescape
func vmeanRowsAsm(out, a *float64, rows, cols int64, inv float64)

// vmeanRowsF32Asm is the f32 twin of vmeanRowsAsm.
//
//mpgraph:noalloc
//go:noescape
func vmeanRowsF32Asm(out, a *float32, rows, cols int64, inv float32)

// firstAboveAsm returns the index of the first of s's n elements that
// compares > v, or n.
//
//mpgraph:noalloc
//go:noescape
func firstAboveAsm(s *float64, n int64, v float64) int64

// firstAboveF32Asm is the f32 twin of firstAboveAsm.
//
//mpgraph:noalloc
//go:noescape
func firstAboveF32Asm(s *float32, n int64, v float32) int64

// sigmoidWidenF32Asm writes out = float64(sigmoid(x)) over n elements with
// vact's sigmoid, and reports whether every x was finite.
//
//mpgraph:noalloc
//go:noescape
func sigmoidWidenF32Asm(out *float64, x *float32, n int64) bool

// batchKernelAvailable reports whether the AVX-512F batch tier is usable on
// this machine; callers fall back to the exact scalar kernels otherwise.
//
//mpgraph:noalloc
func batchKernelAvailable() bool { return useAVX512F }

// The asm leaves below (fmaPanel4, fmaPanel9, fmaPanel1, attnBlock, vact,
// vaddLayerNorm, lstmSteps, vrows, vmeanRows, firstAbove) are the only place the generic float surface names a
// concrete precision (attnScratch reads only its size). unsafe.Sizeof of a T is a
// constant in each instantiation, so the branch costs nothing, and the
// pointer casts it guards only restate the element type the branch has just
// established. arenaOf's type assertion, one per pointer argument, was
// measured here instead: 1-9% slower on every BenchmarkAttentionBlocks row
// (the per-head products call fmaPanel4 for a few hundred flops at a time).

// asF32 and asF64 reinterpret a *T as the element type its size has identified.
//
//mpgraph:noalloc
func asF32[T float32 | float64](p *T) *float32 { return (*float32)(unsafe.Pointer(p)) }

//mpgraph:noalloc
func asF64[T float32 | float64](p *T) *float64 { return (*float64)(unsafe.Pointer(p)) }

// fmaPanels computes out = seed + a @ b over all m rows through the AVX-512F
// panel kernels, row r seeded from seed[r*seedStride:]: seed = out with
// seedStride n accumulates in place, seedStride 0 seeds every row from one
// bias row, a nil seed starts from +0. Seeding in the kernel is what lets a
// biased product skip copying the bias into every output row first. A whole number of history windows (m a multiple of
// WindowRows: every AMMA and TransFetch product, one sequence or a stacked
// batch) goes a window per pass; any other m goes four rows at a time, the
// remainder in one two-row pass and/or one single-row pass. The tile depends
// on the shape alone and every kernel runs an element's ascending-p FMA chain,
// so no tiling can move a bit.
//
//mpgraph:noalloc
func fmaPanels[T float32 | float64](out, a, b, seed []T, seedStride, m, k, n int) {
	if panelCensus != nil {
		panelCensus[PanelShape{m, k, n}]++ // a test's census (CountPanelShapes); nil in any other run
	}
	bp := unsafe.SliceData(b) // k = 0: never read
	if m%WindowRows == 0 {
		for r := 0; r < m; r += WindowRows {
			fmaPanel9(&out[r*n], at(a, r*k), bp, at(seed, r*seedStride), k, n, seedStride)
		}
		return
	}
	r := 0
	for ; r+4 <= m; r += 4 {
		fmaPanel4(&out[r*n], at(a, r*k), bp, at(seed, r*seedStride), k, n, seedStride, 4)
	}
	if r+2 <= m {
		fmaPanel4(&out[r*n], at(a, r*k), bp, at(seed, r*seedStride), k, n, seedStride, 2)
		r += 2
	}
	if r < m {
		fmaPanel1(&out[r*n], at(a, r*k), bp, at(seed, r*seedStride), k, n)
	}
}

// at is &s[i] for a kernel operand that may be empty (a at k = 0, never
// read) or nil (no seed: the kernel starts from +0).
//
//mpgraph:noalloc
func at[T float32 | float64](s []T, i int) *T { return unsafe.SliceData(s[i:]) }

//mpgraph:noalloc
func fmaPanel4[T float32 | float64](out, a, b, seed *T, k, n, seedStride, rows int) {
	if unsafe.Sizeof(*out) == 4 {
		fmaPanel4F32Asm(asF32(out), asF32(a), asF32(b), asF32(seed), int64(k), int64(n), int64(seedStride), int64(rows))
		return
	}
	fmaPanel4Asm(asF64(out), asF64(a), asF64(b), asF64(seed), int64(k), int64(n), int64(seedStride), int64(rows))
}

//mpgraph:noalloc
func fmaPanel9[T float32 | float64](out, a, b, seed *T, k, n, seedStride int) {
	if unsafe.Sizeof(*out) == 4 {
		fmaPanel9F32Asm(asF32(out), asF32(a), asF32(b), asF32(seed), int64(k), int64(n), int64(seedStride))
		return
	}
	fmaPanel9Asm(asF64(out), asF64(a), asF64(b), asF64(seed), int64(k), int64(n), int64(seedStride))
}

//mpgraph:noalloc
func fmaPanel1[T float32 | float64](out, a, b, seed *T, k, n int) {
	if unsafe.Sizeof(*out) == 4 {
		fmaPanel1F32Asm(asF32(out), asF32(a), asF32(b), asF32(seed), int64(k), int64(n))
		return
	}
	fmaPanel1Asm(asF64(out), asF64(a), asF64(b), asF64(seed), int64(k), int64(n))
}

// attnBlock runs one [t x d] attention block through the fused kernel into
// out, whose rows are ostride elements apart; scr holds attnScratch(t, d)
// elements, of which the kernel uses the part from the first 64-byte
// boundary on, so every row it keeps there is aligned.
//
//mpgraph:noalloc
func attnBlock[T float32 | float64](out, q, k, v, scr []T, t, d, dv, ostride int, scale T) {
	_, _, _ = scr[attnScratch[T](t, d)-1], out[(t-1)*ostride+dv-1], v[t*dv-1]
	_, _ = q[:t*d], k[:t*d]
	size := int(unsafe.Sizeof(scale))
	misalign := int(uintptr(unsafe.Pointer(&scr[0])) % 64) // aligns arena scratch to a zmm; no simulated address is involved
	skip := (64 - misalign) % 64 / size
	if size == 4 {
		attnBlockF32Asm(asF32(&out[0]), asF32(at(q, 0)), asF32(at(k, 0)), asF32(&v[0]), asF32(&scr[skip]), int64(t), int64(d), int64(dv), int64(ostride), float32(scale))
		return
	}
	attnBlockAsm(asF64(&out[0]), asF64(at(q, 0)), asF64(at(k, 0)), asF64(&v[0]), asF64(&scr[skip]), int64(t), int64(d), int64(dv), int64(ostride), float64(scale))
}

// attnScratch is the scratch attnBlock needs: qᵀ (d rows of tp, t rounded up
// to a whole zmm), k·scale (t+8 rows of d rounded up likewise), the scores
// (t+8 rows of tp; the eight extra rows take a last tile's overhang), t+1
// registers to pack a ragged last row chunk into, the row maxima (tp) and one
// zmm of room to align the start.
//
//mpgraph:noalloc
func attnScratch[T float32 | float64](t, d int) int {
	var zero T
	lanes := 64 / int(unsafe.Sizeof(zero))
	tp := (t + lanes - 1) / lanes * lanes
	dp := (d + lanes - 1) / lanes * lanes
	return d*tp + (t+8)*(dp+tp) + (t+2)*lanes + tp
}

// vact runs the vector activation kernel in place over row.
//
//mpgraph:noalloc
func vact[T float32 | float64](row []T, mode int64, bias T) {
	if len(row) == 0 {
		return
	}
	if unsafe.Sizeof(bias) == 4 {
		vactF32AVX512(asF32(&row[0]), int64(len(row)), mode, float32(bias))
		return
	}
	vactAVX512(asF64(&row[0]), int64(len(row)), mode, float64(bias))
}

// vaddLayerNorm writes LayerNorm(x + y) (y nil: LayerNorm(x)) into out.
//
//mpgraph:noalloc
func vaddLayerNorm[T float32 | float64](out, x, y, gain, bias []T, rows, cols int, eps T) {
	if rows == 0 || cols == 0 {
		return
	}
	var yp *T
	if y != nil {
		yp = &y[0]
	}
	if unsafe.Sizeof(eps) == 4 {
		vaddLayerNormF32AVX512(asF32(&out[0]), asF32(&x[0]), asF32(yp), asF32(&gain[0]), asF32(&bias[0]), int64(rows), int64(cols), float32(eps))
		return
	}
	vaddLayerNormAVX512(asF64(&out[0]), asF64(&x[0]), asF64(yp), asF64(&gain[0]), asF64(&bias[0]), int64(rows), int64(cols), float64(eps))
}

// lstmSteps runs the recurrence kernel over one sequence of steps.
//
//mpgraph:noalloc
func lstmSteps[T float32 | float64](h, hs, c []T, pre, wh [4][]T, steps int) {
	hidden := len(h)
	_, _ = hs[hidden-1], c[hidden-1]
	for g := range pre {
		_, _ = pre[g][steps*hidden-1], wh[g][hidden*hidden-1]
	}
	if unsafe.Sizeof(h[0]) == 4 {
		lstmStepsF32Asm(asF32(&h[0]), asF32(&hs[0]), asF32(&c[0]),
			asF32(&pre[0][0]), asF32(&pre[1][0]), asF32(&pre[2][0]), asF32(&pre[3][0]),
			asF32(&wh[0][0]), asF32(&wh[1][0]), asF32(&wh[2][0]), asF32(&wh[3][0]),
			int64(steps), int64(hidden))
		return
	}
	lstmStepsAsm(asF64(&h[0]), asF64(&hs[0]), asF64(&c[0]),
		asF64(&pre[0][0]), asF64(&pre[1][0]), asF64(&pre[2][0]), asF64(&pre[3][0]),
		asF64(&wh[0][0]), asF64(&wh[1][0]), asF64(&wh[2][0]), asF64(&wh[3][0]),
		int64(steps), int64(hidden))
}

// vrows runs the row kernel: out row r (opitch apart) = x row r (+ y row r,
// ystride apart; y nil: a move), x row r being table row ids[r] when ids is
// non-nil. The caller has checked every index the kernel reaches.
//
//mpgraph:noalloc
func vrows[T float32 | float64](out, x, y []T, ids []int, rows, cols, opitch, ystride int) {
	if rows == 0 || cols == 0 {
		return
	}
	var yp *T
	if y != nil {
		yp = &y[0]
	}
	var ip *int
	if ids != nil {
		ip = &ids[0]
	}
	if unsafe.Sizeof(out[0]) == 4 {
		vrowsF32Asm(asF32(&out[0]), asF32(&x[0]), asF32(yp), ip, int64(rows), int64(cols), int64(opitch), int64(ystride))
		return
	}
	vrowsAsm(asF64(&out[0]), asF64(&x[0]), asF64(yp), ip, int64(rows), int64(cols), int64(opitch), int64(ystride))
}

// vmeanRows writes the mean-pool of a's rows rows of len(out) into out.
//
//mpgraph:noalloc
func vmeanRows[T float32 | float64](out, a []T, rows int, inv T) {
	_ = a[rows*len(out)-1]
	if unsafe.Sizeof(inv) == 4 {
		vmeanRowsF32Asm(asF32(&out[0]), asF32(&a[0]), int64(rows), int64(len(out)), float32(inv))
		return
	}
	vmeanRowsAsm(asF64(&out[0]), asF64(&a[0]), int64(rows), int64(len(out)), float64(inv))
}

// firstAbove returns the index of the first element of s above v, or len(s).
//
//mpgraph:noalloc
func firstAbove[T float32 | float64](s []T, v T) int {
	if len(s) == 0 {
		return 0
	}
	if unsafe.Sizeof(v) == 4 {
		return int(firstAboveF32Asm(asF32(&s[0]), int64(len(s)), float32(v)))
	}
	return int(firstAboveAsm(asF64(&s[0]), int64(len(s)), float64(v)))
}

// sigmoidWidenF32 writes float64(sigmoid(x)) into out and reports whether
// every x was finite.
//
//mpgraph:noalloc
func sigmoidWidenF32(out []float64, x []float32) bool {
	if len(x) == 0 {
		return true
	}
	_ = out[len(x)-1]
	return sigmoidWidenF32Asm(&out[0], &x[0], int64(len(x)))
}

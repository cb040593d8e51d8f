//go:build amd64

package tensor

// useAVX512F gates the float64 batched-GEMM and vector-activation kernels.
// It is a variable rather than a constant so tests can force the portable
// scalar path and compare both tiers on the same machine.
var useAVX512F = hasAVX512F()

// fmaPanel4Asm is implemented in gemm_batch_amd64.s: out += a @ b for four
// consecutive rows of the activation block (out rows stride n, a rows stride
// k), walking b in 16-column zmm tiles so one weight load feeds four FMA
// chains. rows is 4, or 2 for a two-row remainder.
//
//mpgraph:noalloc
//
//go:noescape
func fmaPanel4Asm(out, a, b *float64, k, n, rows int64)

// fmaPanel1Asm is the single-row remainder kernel; per element it executes
// the identical FMA sequence of one fmaPanel4Asm row, so batch composition
// never changes any row's bits.
//
//mpgraph:noalloc
//
//go:noescape
func fmaPanel1Asm(out, a, b *float64, k, n int64)

// vactAVX512 is implemented in gemm_batch_amd64.s: elementwise activation in
// place over n float64s. mode 0 = exp(x-bias), 1 = sigmoid, 2 = tanh,
// 3 = ReLU.
//
//mpgraph:noalloc
//
//go:noescape
func vactAVX512(p *float64, n, mode int64, bias float64)

// vsoftmaxRowsAVX512 is the in-place row softmax over a dense [rows x cols]
// block (both >= 1).
//
//mpgraph:noalloc
//
//go:noescape
func vsoftmaxRowsAVX512(p, tmp *float64, rows, cols int64)

// vaddLayerNormAVX512 writes LayerNorm(x + y) row by row into out; y may be
// nil (plain LayerNorm). rows and cols are >= 1.
//
//mpgraph:noalloc
//
//go:noescape
func vaddLayerNormAVX512(out, x, y, gain, bias *float64, rows, cols int64, eps float64)

// batchKernelAvailable reports whether the AVX-512F batch tier is usable on
// this machine; callers fall back to the exact scalar kernels otherwise.
//
//mpgraph:noalloc
func batchKernelAvailable() bool { return useAVX512F }

// fmaPanels accumulates out += a @ b over all m rows through the AVX-512F
// panel kernels, four rows at a time; the remainder is one two-row pass
// and/or one single-row pass.
//
//mpgraph:noalloc
func fmaPanels(out, a, b []float64, m, k, n int) {
	r := 0
	for ; r+4 <= m; r += 4 {
		fmaPanel4Asm(&out[r*n], &a[r*k], &b[0], int64(k), int64(n), 4)
	}
	if r+2 <= m {
		fmaPanel4Asm(&out[r*n], &a[r*k], &b[0], int64(k), int64(n), 2)
		r += 2
	}
	if r < m {
		fmaPanel1Asm(&out[r*n], &a[r*k], &b[0], int64(k), int64(n))
	}
}

// vact runs the vector activation kernel in place over row.
//
//mpgraph:noalloc
func vact(row []float64, mode int64, bias float64) {
	if len(row) > 0 {
		vactAVX512(&row[0], int64(len(row)), mode, bias)
	}
}

// vsoftmaxRows applies softmax in place to each row of p [rows x cols];
// tmp is scratch of the same size.
//
//mpgraph:noalloc
func vsoftmaxRows(p, tmp []float64, rows, cols int) {
	if rows > 0 && cols > 0 {
		vsoftmaxRowsAVX512(&p[0], &tmp[0], int64(rows), int64(cols))
	}
}

// vaddLayerNorm writes LayerNorm(x + y) (y nil: LayerNorm(x)) into out.
//
//mpgraph:noalloc
func vaddLayerNorm(out, x, y, gain, bias []float64, rows, cols int, eps float64) {
	if rows == 0 || cols == 0 {
		return
	}
	var yp *float64
	if y != nil {
		yp = &y[0]
	}
	vaddLayerNormAVX512(&out[0], &x[0], yp, &gain[0], &bias[0], int64(rows), int64(cols), eps)
}

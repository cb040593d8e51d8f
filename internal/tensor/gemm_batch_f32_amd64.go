//go:build amd64

package tensor

// Single-precision twins of the batched-GEMM and vector-activation asm
// entry points. They share the useAVX512F gate (and its test override) with
// the f64 tier: both are plain AVX-512F, so one CPUID answer covers both.

// fmaPanel4F32Asm is implemented in gemm_batch_f32_amd64.s: out += a @ b for
// four consecutive rows of the activation block (out rows stride n, a rows
// stride k), walking b in 32-column zmm tile pairs. rows is 4, or 2 for a
// two-row remainder.
//
//mpgraph:noalloc
//
//go:noescape
func fmaPanel4F32Asm(out, a, b *float32, k, n, rows int64)

// fmaPanel1F32Asm is the single-row remainder kernel; per element it
// executes the identical FMA sequence of one fmaPanel4F32Asm row, so batch
// composition never changes any row's bits.
//
//mpgraph:noalloc
//
//go:noescape
func fmaPanel1F32Asm(out, a, b *float32, k, n int64)

// vactF32AVX512 is implemented in gemm_batch_f32_amd64.s: elementwise
// activation in place over n float32s. mode 0 = exp(x-bias), 1 = sigmoid,
// 2 = tanh, 3 = ReLU.
//
//mpgraph:noalloc
//
//go:noescape
func vactF32AVX512(p *float32, n, mode int64, bias float32)

// vsoftmaxRowsF32AVX512 is the in-place row softmax over a dense
// [rows x cols] block (both >= 1).
//
//mpgraph:noalloc
//
//go:noescape
func vsoftmaxRowsF32AVX512(p, tmp *float32, rows, cols int64)

// vaddLayerNormF32AVX512 writes LayerNorm(x + y) row by row into out; y may
// be nil (plain LayerNorm). rows and cols are >= 1.
//
//mpgraph:noalloc
//
//go:noescape
func vaddLayerNormF32AVX512(out, x, y, gain, bias *float32, rows, cols int64, eps float32)

// fmaPanelsF32 accumulates out += a @ b over all m rows through the
// AVX-512F f32 panel kernels, four rows at a time; the remainder is one
// two-row pass and/or one single-row pass.
//
//mpgraph:noalloc
func fmaPanelsF32(out, a, b []float32, m, k, n int) {
	r := 0
	for ; r+4 <= m; r += 4 {
		fmaPanel4F32Asm(&out[r*n], &a[r*k], &b[0], int64(k), int64(n), 4)
	}
	if r+2 <= m {
		fmaPanel4F32Asm(&out[r*n], &a[r*k], &b[0], int64(k), int64(n), 2)
		r += 2
	}
	if r < m {
		fmaPanel1F32Asm(&out[r*n], &a[r*k], &b[0], int64(k), int64(n))
	}
}

// vactF32 runs the vector activation kernel in place over row.
//
//mpgraph:noalloc
func vactF32(row []float32, mode int64, bias float32) {
	if len(row) > 0 {
		vactF32AVX512(&row[0], int64(len(row)), mode, bias)
	}
}

// vsoftmaxRowsF32 applies softmax in place to each row of p [rows x cols];
// tmp is scratch of the same size.
//
//mpgraph:noalloc
func vsoftmaxRowsF32(p, tmp []float32, rows, cols int) {
	if rows > 0 && cols > 0 {
		vsoftmaxRowsF32AVX512(&p[0], &tmp[0], int64(rows), int64(cols))
	}
}

// vaddLayerNormF32 writes LayerNorm(x + y) (y nil: LayerNorm(x)) into out.
//
//mpgraph:noalloc
func vaddLayerNormF32(out, x, y, gain, bias []float32, rows, cols int, eps float32) {
	if rows == 0 || cols == 0 {
		return
	}
	var yp *float32
	if y != nil {
		yp = &y[0]
	}
	vaddLayerNormF32AVX512(&out[0], &x[0], yp, &gain[0], &bias[0], int64(rows), int64(cols), eps)
}

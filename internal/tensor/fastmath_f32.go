package tensor

// f32 twins of the row kernels in fastmath.go. On AVX-512F machines they run
// the vector kernels of gemm_batch_f32_amd64.s (relative error ~1e-7 against
// the math-package-and-narrow scalar reference, inside the tier's parity
// budget); everywhere else the scalar f32 bodies below.

// ApplyActFastF32 applies act elementwise in place, vectorized when
// available. Exported for the nn f32 layers (LSTM cell tanh).
//
//mpgraph:noalloc
func ApplyActFastF32(row []float32, act Act) {
	applyActFastF32(row, act)
}

//mpgraph:noalloc
func applyActFastF32(row []float32, act Act) {
	if act == ActNone {
		return
	}
	if batchKernelAvailable() {
		vactF32(row, vactModeOf[act], 0)
		return
	}
	applyActF32(row, act)
}

// softmaxRowsF32 applies a numerically-stable softmax in place to each row
// of p [rows x cols]; tmp is scratch of the same size.
//
//mpgraph:noalloc
func softmaxRowsF32(p, tmp []float32, rows, cols int) {
	if batchKernelAvailable() {
		vsoftmaxRowsF32(p, tmp, rows, cols)
		return
	}
	for r := 0; r < rows; r++ {
		softmaxInPlaceF32(p[r*cols : (r+1)*cols])
	}
}

// addLayerNormRowsF32 writes LayerNorm(x + y) into out, row by row (y nil:
// x alone); see addLayerNormRows.
//
//mpgraph:noalloc
func addLayerNormRowsF32(out, x, y, gain, bias []float32, rows, cols int, eps float32) {
	if batchKernelAvailable() {
		vaddLayerNormF32(out, x, y, gain, bias, rows, cols, eps)
		return
	}
	addLayerNormScalar(out, x, y, gain, bias, rows, cols, eps)
}

//go:build !amd64

package tensor

import "mpgraph/internal/invariant"

// Off amd64 the f32 tier takes its scalar bodies (the batchKernelAvailable
// gate never routes here), mirroring the f64 fallback contract.

func fmaPanelsF32(out, a, b []float32, m, k, n int) {
	invariant.Fail("tensor: fmaPanelsF32 requires the amd64 batch kernels")
}

func vactF32(row []float32, mode int64, bias float32) {
	invariant.Fail("tensor: vactF32 requires the amd64 batch kernels")
}

func vsoftmaxRowsF32(p, tmp []float32, rows, cols int) {
	invariant.Fail("tensor: vsoftmaxRowsF32 requires the amd64 batch kernels")
}

func vaddLayerNormF32(out, x, y, gain, bias []float32, rows, cols int, eps float32) {
	invariant.Fail("tensor: vaddLayerNormF32 requires the amd64 batch kernels")
}

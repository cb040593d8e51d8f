//go:build !amd64

package tensor

import "mpgraph/internal/invariant"

// useAVX512F is always false off amd64: every float kernel takes its scalar
// body, so the batchKernelAvailable gate never routes to the stubs below.
var useAVX512F = false

//mpgraph:noalloc
func batchKernelAvailable() bool { return false }

func fmaPanels[T float32 | float64](out, a, b []T, m, k, n int) {
	invariant.Fail("tensor: fmaPanels requires the amd64 batch kernels")
}

func vact[T float32 | float64](row []T, mode int64, bias T) {
	invariant.Fail("tensor: vact requires the amd64 batch kernels")
}

func vsoftmaxRows[T float32 | float64](p, tmp []T, rows, cols int) {
	invariant.Fail("tensor: vsoftmaxRows requires the amd64 batch kernels")
}

func vaddLayerNorm[T float32 | float64](out, x, y, gain, bias []T, rows, cols int, eps T) {
	invariant.Fail("tensor: vaddLayerNorm requires the amd64 batch kernels")
}

//go:build !amd64

package tensor

import "mpgraph/internal/invariant"

// useAVX512F is always false off amd64: every float kernel takes its scalar
// body, so the batchKernelAvailable gate never routes to the stubs below.
var useAVX512F = false

//mpgraph:noalloc
func batchKernelAvailable() bool { return false }

func fmaPanels(out, a, b []float64, m, k, n int) {
	invariant.Fail("tensor: fmaPanels requires the amd64 batch kernels")
}

func vact(row []float64, mode int64, bias float64) {
	invariant.Fail("tensor: vact requires the amd64 batch kernels")
}

func vsoftmaxRows(p, tmp []float64, rows, cols int) {
	invariant.Fail("tensor: vsoftmaxRows requires the amd64 batch kernels")
}

func vaddLayerNorm(out, x, y, gain, bias []float64, rows, cols int, eps float64) {
	invariant.Fail("tensor: vaddLayerNorm requires the amd64 batch kernels")
}

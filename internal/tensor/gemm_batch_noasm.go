//go:build !amd64

package tensor

import "mpgraph/internal/invariant"

// useAVX512F is always false off amd64: every float kernel takes its scalar
// body, so the batchKernelAvailable gate never routes to the stubs below.
var useAVX512F = false

//mpgraph:noalloc
func batchKernelAvailable() bool { return false }

func fmaPanels[T float32 | float64](out, a, b, seed []T, seedStride, m, k, n int) {
	invariant.Fail("tensor: fmaPanels requires the amd64 batch kernels")
}

func vact[T float32 | float64](row []T, mode int64, bias T) {
	invariant.Fail("tensor: vact requires the amd64 batch kernels")
}

func attnBlock[T float32 | float64](out, q, k, v, scr []T, t, d, dv, ostride int, scale T) {
	invariant.Fail("tensor: attnBlock requires the amd64 batch kernels")
}

func attnScratch[T float32 | float64](t, d int) int {
	invariant.Fail("tensor: attnScratch requires the amd64 batch kernels")
	return 0
}

func vaddLayerNorm[T float32 | float64](out, x, y, gain, bias []T, rows, cols int, eps T) {
	invariant.Fail("tensor: vaddLayerNorm requires the amd64 batch kernels")
}

func lstmSteps[T float32 | float64](h, hs, c []T, pre, wh [4][]T, steps int) {
	invariant.Fail("tensor: lstmSteps requires the amd64 batch kernels")
}

func vrows[T float32 | float64](out, x, y []T, ids []int, rows, cols, opitch, ystride int) {
	invariant.Fail("tensor: vrows requires the amd64 batch kernels")
}

func vmeanRows[T float32 | float64](out, a []T, rows int, inv T) {
	invariant.Fail("tensor: vmeanRows requires the amd64 batch kernels")
}

func firstAbove[T float32 | float64](s []T, v T) int {
	invariant.Fail("tensor: firstAbove requires the amd64 batch kernels")
	return 0
}

func sigmoidWidenF32(out []float64, x []float32) bool {
	invariant.Fail("tensor: sigmoidWidenF32 requires the amd64 batch kernels")
	return false
}

//go:build !amd64

package softmaxoracle

import "mpgraph/internal/invariant"

func softmaxRows64(p, tmp []float64, rows, cols int) {
	invariant.Fail("softmaxoracle: the parent kernels are amd64 only")
}

func softmaxRows32(p, tmp []float32, rows, cols int) {
	invariant.Fail("softmaxoracle: the parent kernels are amd64 only")
}

package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The shapes the AMMA fast path actually runs under SmallConfig: modality
// feature/projection linears, fusion-width transformer matmuls, and the two
// classifier heads. The int8 kernels must win on these, not on asymptotic
// GEMM sizes.
var qbenchShapes = []struct{ m, k, n int }{
	{9, 8, 16},    // modality feature linear
	{9, 16, 16},   // attention projection
	{18, 32, 32},  // fusion/transformer projection
	{18, 32, 64},  // FFN expand
	{18, 64, 32},  // FFN contract
	{1, 32, 127},  // delta head
	{1, 32, 1024}, // page head
}

func qbenchTensors(m, k, n int, sparse bool) (*Tensor, *Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(7))
	x := Randn(m, k, 1, rng)
	if sparse {
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			}
		}
	}
	w := Randn(k, n, 1, rng)
	bias := Randn(1, n, 1, rng)
	return x, w, bias
}

func BenchmarkLinearActShapes(b *testing.B) {
	for _, sh := range qbenchShapes {
		x, w, bias := qbenchTensors(sh.m, sh.k, sh.n, false)
		c := NewCtx()
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LinearAct(c, x, w, bias, ActReLU)
				c.Reset()
			}
		})
	}
}

func BenchmarkQLinearActShapes(b *testing.B) {
	for _, sh := range qbenchShapes {
		x, w, bias := qbenchTensors(sh.m, sh.k, sh.n, false)
		qw := QuantizeWeights(w)
		scale := QuantScale(x.MaxAbs())
		c := NewCtx()
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.QLinearAct(x, scale, qw, bias, ActReLU)
				c.Reset()
			}
		})
	}
}

func BenchmarkLinearActSparse(b *testing.B) {
	x, w, bias := qbenchTensors(18, 64, 32, true)
	c := NewCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LinearAct(c, x, w, bias, ActReLU)
		c.Reset()
	}
}

func BenchmarkQLinearActSparse(b *testing.B) {
	x, w, bias := qbenchTensors(18, 64, 32, true)
	qw := QuantizeWeights(w)
	scale := QuantScale(x.MaxAbs())
	c := NewCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.QLinearAct(x, scale, qw, bias, ActReLU)
		c.Reset()
	}
}

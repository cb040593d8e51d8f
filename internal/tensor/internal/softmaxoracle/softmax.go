// Package softmaxoracle keeps the row softmax kernels the fused attention
// kernel replaced (tensor.AttentionBlocks, DESIGN.md §8), verbatim, so the
// tensor tests can rebuild the parent's attention composition and hold the
// fused kernel to it bit for bit. Only test binaries link it, and only on
// hosts where tensor's own AVX-512F check passed.
package softmaxoracle

// SoftmaxRows64 applies the parent's vector softmax in place to each row of p
// [rows x cols]; tmp is scratch of the same size. Both counts are >= 1.
func SoftmaxRows64(p, tmp []float64, rows, cols int) {
	softmaxRows64(p, tmp, rows, cols)
}

// SoftmaxRows32 is the f32 twin of SoftmaxRows64.
func SoftmaxRows32(p, tmp []float32, rows, cols int) {
	softmaxRows32(p, tmp, rows, cols)
}

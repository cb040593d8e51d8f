//go:build amd64

package tensor

// useVNNI gates the AVX-512 VNNI int8 GEMM kernel. It is a variable rather
// than a constant so tests can force the portable SWAR path and assert both
// paths produce bit-identical output; flip it only before any
// QuantizeWeights call (the VNNI layout is built at pack time).
var useVNNI = hasAVX512VNNI()

// vnniRowF64 is implemented in qgemm_vnni_amd64.s: one full output row of
// the quantized linear through the VNNI interleave, fused with the
// dequantize epilogue (see the .s file for the exact contract).
//
//mpgraph:noalloc
//go:noescape
func vnniRowF64(orow *float64, w *byte, ua *byte, scales *float64, corr *int32, groups int64, nOut int64, sx float64)

// quantizeRowAVX512 is implemented in qgemm_vnni_amd64.s: the vector mirror
// of quantizeValue, bit-identical on every input.
//
//mpgraph:noalloc
//go:noescape
func quantizeRowAVX512(dst *int8, src *float64, n int64, inv float64)

// qmaddRowVNNI computes one output row of the quantized linear through the
// VNNI representation: orow[j] = dot_int32(xq, col_j)·sx·Scales[j] (+
// bias[j]). ua is the row's offset activations (xq+128 as unsigned bytes)
// zero-padded to a multiple of four. Only the activations are offset, so
// the exact correction is the per-channel constant vcorr[j] = 128·colSum_j
// — there is no row-dependent term.
//
//mpgraph:noalloc
func qmaddRowVNNI(orow []float64, ua []byte, q *QTensor, sx float64, bias []float64) {
	vnniRowF64(&orow[0], &q.vnni[0], &ua[0], &q.Scales[0], &q.vcorr[0],
		int64(len(ua)/4), int64(q.Out), sx)
	if bias != nil {
		for j, bv := range bias {
			orow[j] += bv
		}
	}
}

// quantizeRowFast quantizes src into dst through the AVX-512 kernel,
// reporting false when the caller must run the scalar loop instead.
//
//mpgraph:noalloc
func quantizeRowFast(dst []int8, src []float64, inv float64) bool {
	if !useVNNI || len(src) == 0 {
		return false
	}
	quantizeRowAVX512(&dst[0], &src[0], int64(len(src)), inv)
	return true
}

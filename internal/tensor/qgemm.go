package tensor

// This file implements the int8 inference kernels (DESIGN.md §10). Weights
// are quantized once, offline, to int8 with a per-output-channel symmetric
// scale; activations are quantized per row at a calibrated static scale.
// Products accumulate in int32 and a fused epilogue dequantizes, adds the
// float bias and applies the activation — one pass over the output row, the
// same shape discipline as gemmBiasAct.
//
// There are two accelerated kernel tiers behind one dispatch point
// (qgemmBiasActFast). On amd64 with AVX-512 VNNI, an assembly kernel runs
// VPDPBUSD u8×s8 dot products with a fused dequantize epilogue (see
// qgemm_vnni_amd64.s). Everywhere else, a portable SWAR kernel runs. Both
// accumulate in exact int32/lane arithmetic, so both are bit-identical to
// the scalar reference kernel in this file — the tier is a pure speed
// choice, never a numerics choice.
//
// The speed win on scalar Go is SWAR (SIMD within a register): weights are
// offset to unsigned (w+128 ∈ [1,255]) and packed two output channels per
// uint64, one per 32-bit lane. Activations are offset the same way (a+128
// ∈ [1,255]), so one 64-bit multiply by the scalar offset activation
// computes two products at once, and because a product is ≤ 255·255 =
// 65025, a 32-bit lane absorbs the whole shared-dimension sum in place —
// no widening, no masking, just multiply-add on uint64 words. The inner
// loop is one load + one IMUL + one ADD per two MACs, against one load +
// one MULSD + one ADDSD per single MAC for the float kernels. All lane
// arithmetic is exact integer math, so the packed kernel produces
// bit-identical int32 dots to the scalar reference below.
//
// The double offset is corrected exactly in the epilogue:
// Σ (a+128)(w+128) = Σ a·w + 128·Σw_c + 128·Σa + 128²·k, so
// dot_c = U_c − corr_c − 128·sumA with corr_c = 128·colSum_c + 128²·k
// precomputed at pack time and sumA the signed activation row sum.
// Overflow bound: the low lane stays isolated while k·65025 < 2^32 and the
// int32 dot is exact while U_c < 2^31, i.e. k ≈ 33k — orders of magnitude
// above any layer width here.
//
// Data keeps the canonical TRANSPOSED ([Out x In] row-major) int8 weights:
// the nil-Ctx reference path and Dequantize read it, and it is what
// StorageBytes charges for (the packed words are a derived runtime
// acceleration structure, not extra model storage).

import (
	"math"

	"mpgraph/internal/invariant"
)

// qmax is the symmetric int8 quantization ceiling. The grid is [-127, 127];
// -128 is never produced, so negation stays in range.
const qmax = 127

// QuantScale returns the symmetric int8 scale for a tensor whose maximum
// absolute value is maxAbs. A zero maxAbs (all-zero or never-observed data)
// maps to scale 1 so dequantization never divides by zero.
//
//mpgraph:noalloc
func QuantScale(maxAbs float64) float64 {
	if maxAbs <= 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return 1
	}
	return maxAbs / qmax
}

// QTensor is an int8-quantized weight matrix for a linear layer. The float
// source is [In x Out] row-major (the nn.Linear convention); Data holds the
// TRANSPOSE, [Out x In] row-major, so output channel j is the contiguous
// int8 row Data[j*In:(j+1)*In] with its own symmetric scale Scales[j].
type QTensor struct {
	In, Out int
	Data    []int8
	Scales  []float64

	// SWAR acceleration structure (see the file comment). Blocks of eight
	// output channels; each block's In·4 words are CONTIGUOUS so the inner
	// loop streams memory sequentially: packed[(b·In + p)·4 + t] is word t
	// of block b for input row p, holding channel b·8+t in its low 32-bit
	// lane and channel b·8+t+4 in its high lane, weights offset to
	// unsigned (w+128). Channels past Out are padded with weight zero.
	// corr[c] = 128·colSum_c + 128²·In is the channel's constant share of
	// the double-offset correction.
	packed []uint64
	corr   []int32
	blocks int

	// VNNI acceleration structure, built only when the CPU supports
	// AVX-512 VNNI (useVNNI): plain s8 weights interleaved for VPDPBUSD in
	// blocks of 16 output channels — vnni[blk·bstride + g·64 + c·4 + t] is
	// shared-dimension byte g·4+t of channel blk·16+c, zero-padded in both
	// dimensions. Only the activations are offset (+128, unsigned), so the
	// exact correction is vcorr[c] = 128·colSum_c with no row term.
	vnni  []byte
	vcorr []int32
}

// QuantizeWeights quantizes a float [in x out] weight matrix to int8 with
// one symmetric scale per output channel: scale_j = maxabs(column j)/127.
// Per-channel scales keep narrow channels from being crushed by one wide
// channel's range — the per-tensor failure mode nn.Quantize documents.
func QuantizeWeights(w *Tensor) *QTensor {
	in, out := w.Rows, w.Cols
	q := &QTensor{
		In:     in,
		Out:    out,
		Data:   make([]int8, in*out),
		Scales: make([]float64, out),
	}
	for j := 0; j < out; j++ {
		var maxAbs float64
		for i := 0; i < in; i++ {
			if v := math.Abs(w.Data[i*out+j]); v > maxAbs {
				maxAbs = v
			}
		}
		s := QuantScale(maxAbs)
		q.Scales[j] = s
		inv := 1 / s
		qrow := q.Data[j*in : (j+1)*in]
		for i := 0; i < in; i++ {
			qrow[i] = quantizeValue(w.Data[i*out+j], inv)
		}
	}
	q.pack()
	return q
}

// pack builds the SWAR representation from Data: eight output channels per
// block, weights offset to unsigned, 32-bit lanes. Padded channels (Out not
// a multiple of eight) carry int8 weight 0, i.e. lane value 128; their lane
// sums are computed and discarded by the epilogue.
func (q *QTensor) pack() {
	nb := (q.Out + 7) / 8
	q.blocks = nb
	q.packed = make([]uint64, q.In*nb*4)
	q.corr = make([]int32, nb*8)
	uw := func(j, p int) uint64 {
		if j >= q.Out {
			return 128
		}
		return uint64(int64(q.Data[j*q.In+p]) + 128)
	}
	for b := 0; b < nb; b++ {
		for p := 0; p < q.In; p++ {
			for t := 0; t < 4; t++ {
				q.packed[(b*q.In+p)*4+t] = uw(b*8+t, p) | uw(b*8+t+4, p)<<32
			}
		}
	}
	for j := 0; j < q.Out; j++ {
		colSum := int32(0)
		for p := 0; p < q.In; p++ {
			colSum += int32(q.Data[j*q.In+p])
		}
		q.corr[j] = 128*colSum + 128*128*int32(q.In)
	}
	// Padding channels accumulate Σ(a+128)·128 = 128·sumA + 128²·In; the
	// matching correction keeps qlane extraction uniform (their dots come
	// out zero and are never stored).
	for j := q.Out; j < nb*8; j++ {
		q.corr[j] = 128 * 128 * int32(q.In)
	}
	if useVNNI {
		q.packVNNI()
	}
}

// packVNNI builds the VPDPBUSD weight interleave: 16 output channels per
// block, each group of four shared-dimension bytes stored contiguously per
// channel (the 4-byte dot-product granule VPDPBUSD consumes). Weights stay
// plain signed int8; padding in either dimension is weight zero, which
// contributes nothing regardless of the activation byte.
func (q *QTensor) packVNNI() {
	k4 := (q.In + 3) &^ 3
	nb := (q.Out + 15) / 16
	bstride := k4 * 16
	q.vnni = make([]byte, nb*bstride)
	for blk := 0; blk < nb; blk++ {
		base := blk * bstride
		for g := 0; g < k4/4; g++ {
			for ch := 0; ch < 16; ch++ {
				j := blk*16 + ch
				if j >= q.Out {
					continue
				}
				for t := 0; t < 4; t++ {
					p := g*4 + t
					if p >= q.In {
						continue
					}
					q.vnni[base+g*64+ch*4+t] = byte(q.Data[j*q.In+p])
				}
			}
		}
	}
	q.vcorr = make([]int32, nb*16)
	for j := 0; j < q.Out; j++ {
		var colSum int32
		for p := 0; p < q.In; p++ {
			colSum += int32(q.Data[j*q.In+p])
		}
		q.vcorr[j] = 128 * colSum
	}
}

// Dequantize reconstructs the float [In x Out] weight matrix the quantized
// representation encodes (test and parity-analysis helper).
func (q *QTensor) Dequantize() *Tensor {
	w := Zeros(q.In, q.Out)
	for j := 0; j < q.Out; j++ {
		s := q.Scales[j]
		qrow := q.Data[j*q.In : (j+1)*q.In]
		for i := 0; i < q.In; i++ {
			w.Data[i*q.Out+j] = float64(qrow[i]) * s
		}
	}
	return w
}

// StorageBytes returns the on-disk size of the quantized representation:
// int8 weights plus one float64 scale per output channel.
func (q *QTensor) StorageBytes() int { return len(q.Data) + 8*len(q.Scales) }

// quantizeValue rounds v/scale (inv = 1/scale) to the nearest int8 on the
// symmetric grid, saturating at ±qmax. Rounding is half-up (Floor(x+0.5))
// rather than half-away-from-zero: the two differ only at exact negative
// .5 ties, and Floor compiles to a single ROUNDSD on amd64 where math.Round
// is a multi-op bit dance — this sits on the per-element activation
// quantization path, so it shows up in profiles.
//
//mpgraph:noalloc
func quantizeValue(v, inv float64) int8 {
	r := math.Floor(v*inv + 0.5)
	if r > qmax {
		return qmax
	}
	if r < -qmax {
		return -qmax
	}
	return int8(r)
}

// quantizeRowInto quantizes src at 1/inv into dst, element for element. On
// AVX-512 hardware the vector kernel runs instead of the scalar loop; both
// produce bit-identical output (same multiply/round/clamp sequence).
//
//mpgraph:noalloc
func quantizeRowInto(dst []int8, src []float64, inv float64) {
	if quantizeRowFast(dst, src, inv) {
		return
	}
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] = quantizeValue(v, inv)
	}
}

// qdotRows returns the int32 dot product of two equal-length int8 rows,
// 4-way unrolled with independent partial sums, mirroring dotRows.
//
//mpgraph:noalloc
func qdotRows(a, b []int8) int32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 int32
	j := 0
	for ; j+4 <= n; j += 4 {
		s0 += int32(a[j]) * int32(b[j])
		s1 += int32(a[j+1]) * int32(b[j+1])
		s2 += int32(a[j+2]) * int32(b[j+2])
		s3 += int32(a[j+3]) * int32(b[j+3])
	}
	s := s0 + s1 + s2 + s3
	for ; j < n; j++ {
		s += int32(a[j]) * int32(b[j])
	}
	return s
}

// qdotRows4 returns a's dot product with four weight rows in one pass, so
// the activation row is streamed once per four output channels — the same
// register blocking as dotRows4. int32 accumulation is exact: |sum| ≤
// k·127² needs k > 2^31/127² ≈ 133k to overflow, orders of magnitude above
// any layer width here.
//
//mpgraph:noalloc
func qdotRows4(a, b0, b1, b2, b3 []int8) (s0, s1, s2, s3 int32) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := 0; j < n; j++ {
		av := int32(a[j])
		s0 += av * int32(b0[j])
		s1 += av * int32(b1[j])
		s2 += av * int32(b2[j])
		s3 += av * int32(b3[j])
	}
	return
}

// qdotPanel computes one output row of the quantized linear: for each
// output channel j, orow[j] = dot_int32(xq, wrow_j)·sx·scales[j] + bias[j],
// blocked four channels at a time. sx is the activation scale; bias may be
// nil. The epilogue is the dequantization — int32 counts leave the kernel
// already folded back to float.
//
//mpgraph:noalloc
func qdotPanel(orow []float64, xq, wt []int8, k, n int, sx float64, scales, bias []float64) {
	j := 0
	for ; j+4 <= n; j += 4 {
		s0, s1, s2, s3 := qdotRows4(xq,
			wt[j*k:(j+1)*k], wt[(j+1)*k:(j+2)*k],
			wt[(j+2)*k:(j+3)*k], wt[(j+3)*k:(j+4)*k])
		orow[j] = float64(s0) * sx * scales[j]
		orow[j+1] = float64(s1) * sx * scales[j+1]
		orow[j+2] = float64(s2) * sx * scales[j+2]
		orow[j+3] = float64(s3) * sx * scales[j+3]
	}
	for ; j < n; j++ {
		orow[j] = float64(qdotRows(xq, wt[j*k:(j+1)*k])) * sx * scales[j]
	}
	if bias != nil {
		for j, bv := range bias {
			orow[j] += bv
		}
	}
}

// qgemmBiasAct computes out = act(deq(xq@W^T) + bias) with xq [m x k] int8,
// W^T [n x k] int8 (QTensor layout), bias [n] float (nil for none) — the
// quantized mirror of gemmBiasAct. This is the scalar reference kernel: the
// nil-Ctx slow path runs it, and the arena fast path below must produce
// bit-identical output (int32 accumulation is exact, so the SWAR
// restructuring cannot diverge).
//
//mpgraph:noalloc
func qgemmBiasAct(out []float64, xq, wt []int8, m, k, n int, sx float64, scales, bias []float64, act Act) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		qdotPanel(orow, xq[i*k:(i+1)*k], wt, k, n, sx, scales, bias)
		applyAct(orow, act)
	}
}

// qblockAccum accumulates one eight-channel block's unsigned lane sums over
// the offset activation row (ua[p] = xq[p]+128, precomputed by the caller).
// wb is the block's contiguous In·4 packed words. One 64-bit multiply per
// word computes two products that accumulate in their 32-bit lanes with no
// widening (see the file comment for the overflow bound). Accumulator t
// holds channels t (low lane) and t+4 (high lane). The i+4 <= len(wb) loop
// condition lets the compiler drop the weight bounds checks.
//
//mpgraph:noalloc
func qblockAccum(wb []uint64, ua []int) (a0, a1, a2, a3 uint64) {
	for i := 0; i+4 <= len(wb); i += 4 {
		a := uint64(ua[i>>2])
		a0 += wb[i] * a
		a1 += wb[i+1] * a
		a2 += wb[i+2] * a
		a3 += wb[i+3] * a
	}
	return
}

// qlane picks channel c (0..7) of a block out of the lane accumulators —
// remainder-block helper; full blocks extract lanes inline.
//
//mpgraph:noalloc
func qlane(a0, a1, a2, a3 uint64, c int) int32 {
	var w uint64
	switch c % 4 {
	case 0:
		w = a0
	case 1:
		w = a1
	case 2:
		w = a2
	default:
		w = a3
	}
	if c >= 4 {
		w >>= 32
	}
	return int32(uint32(w))
}

// qmaddRow computes one output row of the quantized linear through the
// packed SWAR representation: orow[j] = dot_int32(xq, col_j)·sx·Scales[j]
// (+ bias[j]). ua is the row's offset activations (xq+128) and rowCorr its
// precomputed 128·sumA share of the double-offset correction.
//
//mpgraph:noalloc
func qmaddRow(orow []float64, ua []int, rowCorr int32, q *QTensor, sx float64, bias []float64) {
	bw := q.In * 4
	full := q.Out / 8
	for b := 0; b < full; b++ {
		a0, a1, a2, a3 := qblockAccum(q.packed[b*bw:(b+1)*bw], ua)
		base := b * 8
		co := q.corr[base : base+8 : base+8]
		d0 := int32(uint32(a0)) - co[0] - rowCorr
		d1 := int32(uint32(a1)) - co[1] - rowCorr
		d2 := int32(uint32(a2)) - co[2] - rowCorr
		d3 := int32(uint32(a3)) - co[3] - rowCorr
		d4 := int32(uint32(a0>>32)) - co[4] - rowCorr
		d5 := int32(uint32(a1>>32)) - co[5] - rowCorr
		d6 := int32(uint32(a2>>32)) - co[6] - rowCorr
		d7 := int32(uint32(a3>>32)) - co[7] - rowCorr
		ob := orow[base : base+8 : base+8]
		sc := q.Scales[base : base+8 : base+8]
		ob[0] = float64(d0) * sx * sc[0]
		ob[1] = float64(d1) * sx * sc[1]
		ob[2] = float64(d2) * sx * sc[2]
		ob[3] = float64(d3) * sx * sc[3]
		ob[4] = float64(d4) * sx * sc[4]
		ob[5] = float64(d5) * sx * sc[5]
		ob[6] = float64(d6) * sx * sc[6]
		ob[7] = float64(d7) * sx * sc[7]
	}
	if base := full * 8; base < q.Out {
		a0, a1, a2, a3 := qblockAccum(q.packed[full*bw:(full+1)*bw], ua)
		for j := base; j < q.Out; j++ {
			d := qlane(a0, a1, a2, a3, j-base) - q.corr[j] - rowCorr
			orow[j] = float64(d) * sx * q.Scales[j]
		}
	}
	if bias != nil {
		for j, bv := range bias {
			orow[j] += bv
		}
	}
}

// qgemmBiasActFast is the arena mirror of qgemmBiasAct. On CPUs with
// AVX-512 VNNI it runs the assembly VPDPBUSD row kernel; everywhere else it
// runs the portable SWAR row kernel. Both accumulate in exact int32, so both
// are bit-identical to the scalar reference. The only scratch is one k-wide
// offset-activation row, reused across output rows.
//
//mpgraph:noalloc
func (c *Ctx) qgemmBiasActFast(out []float64, xq []int8, q *QTensor, m int, sx float64, bias []float64, act Act) {
	k, n := q.In, q.Out
	if q.vnni != nil {
		k4 := (k + 3) &^ 3
		ub := c.Bytes(k4)
		for p := k; p < k4; p++ {
			ub[p] = 0
		}
		for i := 0; i < m; i++ {
			orow := out[i*n : (i+1)*n]
			row := xq[i*k : (i+1)*k]
			for p, v := range row {
				ub[p] = byte(int(v) + 128)
			}
			qmaddRowVNNI(orow, ub, q, sx, bias)
			applyAct(orow, act)
		}
		return
	}
	ua := c.Ints(k)
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		row := xq[i*k : (i+1)*k]
		sumA := 0
		for p, v := range row {
			sumA += int(v)
			ua[p] = int(v) + 128
		}
		qmaddRow(orow, ua, int32(128*sumA), q, sx, bias)
		applyAct(orow, act)
	}
}

// QuantizeActs quantizes every element of x at the given activation scale
// into an arena-backed int8 buffer laid out like x.Data. The buffer obeys
// the arena lifetime rules: valid until the next Reset.
//
//mpgraph:noalloc
func (c *Ctx) QuantizeActs(x *Tensor, scale float64) []int8 {
	out := c.Int8s(len(x.Data))
	quantizeRowInto(out, x.Data, 1/scale)
	return out
}

// QLinearActQ returns act(deq(xq@W^T) + bias) for an already-quantized
// activation buffer xq of the given row count — the shared-activation entry
// the attention projections use (quantize x once, run Wq/Wk/Wv against the
// same buffer). bias may be nil.
//
//mpgraph:noalloc
func (c *Ctx) QLinearActQ(xq []int8, rows int, scale float64, w *QTensor, bias *Tensor, act Act) *Tensor {
	if len(xq) != rows*w.In {
		invariant.Failf("tensor: qlinear %d int8 acts for %dx%d", len(xq), rows, w.In)
	}
	var bd []float64
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != w.Out {
			invariant.Failf("tensor: qlinear bias %dx%d for width %d", bias.Rows, bias.Cols, w.Out)
		}
		bd = bias.Data
	}
	if c == nil {
		out := Zeros(rows, w.Out)
		qgemmBiasAct(out.Data, xq, w.Data, rows, w.In, w.Out, scale, w.Scales, bd, act)
		return out
	}
	out := uninit[float64](c, rows, w.Out)
	c.qgemmBatch(out.Data, xq, w, rows, scale, bd, act)
	return out
}

// QLinearAct quantizes x at scale and returns act(deq(q(x)@W^T) + bias) —
// the quantized mirror of LinearAct. Valid on a nil receiver (allocating
// slow path with identical numerics).
//
//mpgraph:noalloc
func (c *Ctx) QLinearAct(x *Tensor, scale float64, w *QTensor, bias *Tensor, act Act) *Tensor {
	if x.Cols != w.In {
		invariant.Failf("tensor: qlinear %dx%d @ q%dx%d", x.Rows, x.Cols, w.In, w.Out)
	}
	return c.QLinearActQ(c.QuantizeActs(x, scale), x.Rows, scale, w, bias, act)
}

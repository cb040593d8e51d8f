package tensor

import "mpgraph/internal/invariant"

// Batch-aware arena ops. A "stacked" tensor holds one session per block of
// rows: [blocks*T x d] in session-major order. Row-wise ops (LinearAct,
// AddLayerNorm) are batch-oblivious and run on the stacked
// tensor unchanged; the ops below are the ones that must know the block
// boundary. Each computes a block as a pure function of that block's rows, so
// a block's result never depends on batch composition and a single sequence
// is simply blocks=1.

// AttentionBlocks runs scaled-dot-product attention softmax(q·kᵀ·scale)·v
// independently inside each of the `blocks` equal row blocks of q/k/v
// (self-attention never crosses a session boundary). Per block, k is
// transposed and pre-scaled once into arena scratch so the scores are a plain
// GEMM, the softmax runs over the whole [T x T] block, and the AV product is
// a second GEMM — all three on the panel/row kernels where AVX-512F is
// present and on the scalar kernels elsewhere. A nil ctx is the autograd
// composition over one sequence (blocks must be 1).
//
//mpgraph:noalloc
func AttentionBlocks[T float32 | float64](c *Ctx, q, k, v *Dense[T], blocks int, scale T) *Dense[T] {
	if c == nil {
		invariant.Check(blocks == 1, "tensor: attentionBlocks on a nil ctx takes one sequence")
		scores := Scale(MatMul(graph(q), Transpose(graph(k))), float64(scale))
		return ungraph[T](MatMul(SoftmaxRows(scores), graph(v)))
	}
	if blocks <= 0 || q.Rows%blocks != 0 {
		invariant.Failf("tensor: attentionBlocks %d rows over %d blocks", q.Rows, blocks)
	}
	if q.Cols != k.Cols || q.Rows != k.Rows || k.Rows != v.Rows {
		invariant.Failf("tensor: attentionBlocks q %dx%d k %dx%d v %dx%d",
			q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols)
	}
	t := q.Rows / blocks
	d := q.Cols
	dv := v.Cols
	out := zeros[T](c, q.Rows, dv)
	scratch := &arenaOf[T](c).data
	kT := scratch.takeUninit(d * t)
	scores := scratch.takeUninit(2 * t * t)
	scores, tmp := scores[:t*t], scores[t*t:]
	for blk := 0; blk < blocks; blk++ {
		transposeScale(kT, k.Data[blk*t*d:(blk+1)*t*d], t, d, scale)
		clear(scores)
		gemmBatch(scores, q.Data[blk*t*d:(blk+1)*t*d], kT, t, d, t)
		softmaxRows(scores, tmp, t, t)
		gemmBatch(out.Data[blk*t*dv:(blk+1)*t*dv], scores, v.Data[blk*t*dv:(blk+1)*t*dv], t, t, dv)
	}
	return out
}

// transposeScale writes dst [cols x rows] = srcᵀ·scale for src [rows x cols],
// four source rows per pass so the strided stores land in runs of four.
//
//mpgraph:noalloc
func transposeScale[T float32 | float64](dst, src []T, rows, cols int, scale T) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0 := src[r*cols : (r+1)*cols]
		s1 := src[(r+1)*cols : (r+2)*cols][:cols]
		s2 := src[(r+2)*cols : (r+3)*cols][:cols]
		s3 := src[(r+3)*cols : (r+4)*cols][:cols]
		o := r
		for c := range s0 {
			d := dst[o : o+4 : o+4]
			d[0], d[1], d[2], d[3] = s0[c]*scale, s1[c]*scale, s2[c]*scale, s3[c]*scale
			o += rows
		}
	}
	for ; r < rows; r++ {
		o := r
		for _, v := range src[r*cols : (r+1)*cols] {
			dst[o] = v * scale
			o += rows
		}
	}
}

// MeanRowsBatch reduces each block of rows to its mean row: [blocks*T x d]
// -> [blocks x d], accumulating in the exact order MeanRows uses per block.
//
//mpgraph:noalloc
func MeanRowsBatch[T float32 | float64](c *Ctx, a *Dense[T], blocks int) *Dense[T] {
	if c == nil || blocks <= 0 || a.Rows%blocks != 0 {
		invariant.Failf("tensor: meanRowsBatch %d rows over %d blocks", a.Rows, blocks)
	}
	t := a.Rows / blocks
	out := zeros[T](c, blocks, a.Cols)
	inv := 1 / T(t)
	for blk := 0; blk < blocks; blk++ {
		orow := out.Data[blk*a.Cols : (blk+1)*a.Cols]
		for r := 0; r < t; r++ {
			arow := a.Data[(blk*t+r)*a.Cols : (blk*t+r+1)*a.Cols]
			for j, av := range arow {
				orow[j] += av * inv
			}
		}
	}
	return out
}

// AddPosBatch adds a [T x d] positional table to every block of a stacked
// [blocks*T x d] tensor — the batched form of Add(x, pos).
//
//mpgraph:noalloc
func AddPosBatch[T float32 | float64](c *Ctx, a, pos *Dense[T], blocks int) *Dense[T] {
	if c == nil || blocks <= 0 || a.Rows != blocks*pos.Rows || a.Cols != pos.Cols {
		invariant.Failf("tensor: addPosBatch %dx%d + %dx%d over %d blocks",
			a.Rows, a.Cols, pos.Rows, pos.Cols, blocks)
	}
	out := uninit[T](c, a.Rows, a.Cols)
	n := len(pos.Data)
	for blk := 0; blk < blocks; blk++ {
		ab := a.Data[blk*n : (blk+1)*n]
		ob := out.Data[blk*n : (blk+1)*n]
		for i, av := range ab {
			ob[i] = av + pos.Data[i]
		}
	}
	return out
}

// ConcatRowsBatch2 interleaves two stacked tensors block by block:
// out block i = rows of a's block i followed by rows of b's block i. This is
// the modality-fusion concat. A nil ctx is the autograd ConcatRows over one
// sequence (blocks must be 1).
//
//mpgraph:noalloc
func ConcatRowsBatch2[T float32 | float64](c *Ctx, a, b *Dense[T], blocks int) *Dense[T] {
	if c == nil {
		invariant.Check(blocks == 1, "tensor: concatRowsBatch2 on a nil ctx takes one sequence")
		return ungraph[T](ConcatRows(graph(a), graph(b)))
	}
	if blocks <= 0 || a.Cols != b.Cols || a.Rows%blocks != 0 || b.Rows%blocks != 0 {
		invariant.Failf("tensor: concatRowsBatch2 %dx%d + %dx%d over %d blocks",
			a.Rows, a.Cols, b.Rows, b.Cols, blocks)
	}
	ta := a.Rows / blocks
	tb := b.Rows / blocks
	d := a.Cols
	out := uninit[T](c, a.Rows+b.Rows, d)
	for blk := 0; blk < blocks; blk++ {
		base := blk * (ta + tb) * d
		copy(out.Data[base:base+ta*d], a.Data[blk*ta*d:(blk+1)*ta*d])
		copy(out.Data[base+ta*d:base+(ta+tb)*d], b.Data[blk*tb*d:(blk+1)*tb*d])
	}
	return out
}

// AddRowPerBlock adds table row ids[i] to every row of block i — the batched
// AddBias(x, embedding-row) the per-phase embedding uses.
//
//mpgraph:noalloc
func AddRowPerBlock[T float32 | float64](c *Ctx, a, table *Dense[T], ids []int, blocks int) *Dense[T] {
	if c == nil || blocks <= 0 || len(ids) != blocks || a.Rows%blocks != 0 || table.Cols != a.Cols {
		invariant.Failf("tensor: addRowPerBlock %dx%d, %d ids over %d blocks",
			a.Rows, a.Cols, len(ids), blocks)
	}
	t := a.Rows / blocks
	d := a.Cols
	out := uninit[T](c, a.Rows, a.Cols)
	for blk, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: addRowPerBlock id %d of %d rows", id, table.Rows)
		}
		bias := table.Data[id*d : (id+1)*d]
		for r := 0; r < t; r++ {
			arow := a.Data[(blk*t+r)*d : (blk*t+r+1)*d]
			orow := out.Data[(blk*t+r)*d : (blk*t+r+1)*d]
			for j, av := range arow {
				orow[j] = av + bias[j]
			}
		}
	}
	return out
}

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
// (self-attention never crosses a session boundary). Where AVX-512F is
// present a block is one call of the fused kernel (attnBlockAsm: Kᵀ·scale,
// scores, softmax and the AV product in registers and arena scratch).
// Elsewhere k is transposed and pre-scaled into scratch so the scores are a
// plain GEMM, each score row is softmaxed, and the AV product is a second
// GEMM, on the scalar kernels — the same composition, step for step, that the
// fused kernel replays. A nil ctx is the autograd composition over one
// sequence (blocks must be 1).
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
	scratch := &arenaOf[T](c).data
	if batchKernelAvailable() {
		out := uninit[T](c, q.Rows, dv)
		if t == 0 || dv == 0 {
			return out
		}
		scr := scratch.takeUninit(attnScratch[T](t, d))
		for blk := 0; blk < blocks; blk++ {
			attnBlock(out.Data[blk*t*dv:(blk+1)*t*dv], q.Data[blk*t*d:(blk+1)*t*d],
				k.Data[blk*t*d:(blk+1)*t*d], v.Data[blk*t*dv:(blk+1)*t*dv], scr, t, d, dv, scale)
		}
		return out
	}
	out := zeros[T](c, q.Rows, dv)
	kT := scratch.takeUninit(d * t)
	scores := scratch.takeUninit(t * t)
	for blk := 0; blk < blocks; blk++ {
		kb := k.Data[blk*t*d : (blk+1)*t*d]
		for j := 0; j < t; j++ {
			for p, kv := range kb[j*d : (j+1)*d] {
				kT[p*t+j] = kv * scale
			}
		}
		clear(scores)
		gemm(scores, q.Data[blk*t*d:(blk+1)*t*d], kT, t, d, t)
		for r := 0; r < t; r++ {
			softmaxInPlace(scores[r*t : (r+1)*t])
		}
		gemm(out.Data[blk*t*dv:(blk+1)*t*dv], scores, v.Data[blk*t*dv:(blk+1)*t*dv], t, t, dv)
	}
	return out
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

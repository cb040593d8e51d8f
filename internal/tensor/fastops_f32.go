package tensor

import "mpgraph/internal/invariant"

// Graph-free f32 ops (DESIGN.md §13). Unlike the float64 fast path — whose
// nil-ctx form falls back to autograd — the f32 tier is inference-only:
// training never runs in single precision, so every op below requires a
// non-nil ctx and fails the invariant otherwise (model mirrors fall back to
// their float64 source before reaching tensor code).
//
// Every op routes through the batched panel kernels, which dispatch to the
// AVX-512F tier when available and the exact scalar f32 kernels otherwise.
// Each output row is a pure function of its own input row with a fixed
// per-row operation sequence, so sequential (one-sample) and batched f32
// inference are bit-identical and batch composition never changes bits.

// requireCtx guards the f32 tier's non-nil ctx contract.
//
//mpgraph:noalloc
func requireCtx(c *Ctx, op string) {
	if c == nil {
		invariant.Failf("tensor: %s requires a non-nil ctx (f32 tier is inference-only)", op)
	}
}

// ZerosF32 returns a zeroed arena-backed rows x cols f32 tensor.
//
//mpgraph:noalloc
func (c *Ctx) ZerosF32(rows, cols int) *F32Tensor {
	requireCtx(c, "ZerosF32")
	return c.zerosF32(rows, cols)
}

// NarrowCtxF32 rounds a float64 tensor into an arena-backed f32 tensor — the
// activation-narrowing step where f64 feature builders hand off to the f32
// compute tier.
//
//mpgraph:noalloc
func (c *Ctx) NarrowCtxF32(t *Tensor) *F32Tensor {
	requireCtx(c, "NarrowCtxF32")
	out := c.uninitF32(t.Rows, t.Cols)
	for i, v := range t.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// WidenCtxF32 widens an f32 tensor into an arena-backed float64 tensor —
// the exact (and rank-preserving) hand-off from f32 compute back to the
// float64 score consumers (screening, top-k decode).
//
//mpgraph:noalloc
func (c *Ctx) WidenCtxF32(t *F32Tensor) *Tensor {
	requireCtx(c, "WidenCtxF32")
	out := c.uninit(t.Rows, t.Cols)
	for i, v := range t.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// ConcatColsF32 stacks tensors horizontally (same Rows) — the multi-head
// concat; heads come from an arena F32Ptrs slice.
//
//mpgraph:noalloc
func (c *Ctx) ConcatColsF32(ts []*F32Tensor) *F32Tensor {
	requireCtx(c, "ConcatColsF32")
	if len(ts) == 0 {
		invariant.Fail("tensor: ConcatColsF32 of nothing")
	}
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			invariant.Fail("tensor: ConcatColsF32 row mismatch")
		}
		cols += t.Cols
	}
	out := c.uninitF32(rows, cols)
	colOff := 0
	for _, t := range ts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*cols+colOff:r*cols+colOff+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
		}
		colOff += t.Cols
	}
	return out
}

// EmbeddingLookupF32 gathers rows of table by ids.
//
//mpgraph:noalloc
func (c *Ctx) EmbeddingLookupF32(table *F32Tensor, ids []int) *F32Tensor {
	requireCtx(c, "EmbeddingLookupF32")
	for _, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: embeddingF32 id %d out of [0,%d)", id, table.Rows)
		}
	}
	out := c.uninitF32(len(ids), table.Cols)
	for i, id := range ids {
		copy(out.Data[i*table.Cols:(i+1)*table.Cols], table.Data[id*table.Cols:(id+1)*table.Cols])
	}
	return out
}

// LinearActF32 returns act(x@w + bias) through the batched f32 panel
// kernels (bias may be nil).
//
//mpgraph:noalloc
func (c *Ctx) LinearActF32(x, w, bias *F32Tensor, act Act) *F32Tensor {
	requireCtx(c, "LinearActF32")
	if x.Cols != w.Rows {
		invariant.Failf("tensor: linearF32 %dx%d @ %dx%d", x.Rows, x.Cols, w.Rows, w.Cols)
	}
	out := c.uninitF32(x.Rows, w.Cols)
	var bd []float32
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != w.Cols {
			invariant.Failf("tensor: linearF32 bias %dx%d for width %d", bias.Rows, bias.Cols, w.Cols)
		}
		bd = bias.Data
	}
	gemmBatchBiasActF32(out.Data, x.Data, w.Data, bd, x.Rows, x.Cols, w.Cols, act)
	return out
}

// Linear2ActF32 returns act(x1@w1 + x2@w2 + bias) — the fused LSTM gate
// composition.
//
//mpgraph:noalloc
func (c *Ctx) Linear2ActF32(x1, w1, x2, w2, bias *F32Tensor, act Act) *F32Tensor {
	requireCtx(c, "Linear2ActF32")
	if x1.Cols != w1.Rows || x2.Cols != w2.Rows || x1.Rows != x2.Rows || w1.Cols != w2.Cols {
		invariant.Failf("tensor: linear2F32 %dx%d@%dx%d + %dx%d@%dx%d",
			x1.Rows, x1.Cols, w1.Rows, w1.Cols, x2.Rows, x2.Cols, w2.Rows, w2.Cols)
	}
	out := c.uninitF32(x1.Rows, w1.Cols)
	var bd []float32
	if bias != nil {
		bd = bias.Data
	}
	gemm2BatchBiasActF32(out.Data, x1.Data, w1.Data, x2.Data, w2.Data, bd,
		x1.Rows, x1.Cols, x2.Cols, w1.Cols, act)
	return out
}

// SigmoidInPlaceF32 applies the logistic function in place.
//
//mpgraph:noalloc
func (c *Ctx) SigmoidInPlaceF32(a *F32Tensor) *F32Tensor {
	requireCtx(c, "SigmoidInPlaceF32")
	applyActFastF32(a.Data, ActSigmoid)
	return a
}

// AddLayerNormF32 returns LayerNorm(x + y) as one fused op (see
// AddLayerNorm); a nil y is the plain LayerNorm of x.
//
//mpgraph:noalloc
func (c *Ctx) AddLayerNormF32(x, y, gain, bias *F32Tensor, eps float32) *F32Tensor {
	requireCtx(c, "AddLayerNormF32")
	if gain.Cols != x.Cols || bias.Cols != x.Cols {
		invariant.Failf("tensor: layernormF32 gain/bias width for %dx%d", x.Rows, x.Cols)
	}
	out := c.uninitF32(x.Rows, x.Cols)
	var yd []float32
	if y != nil {
		if y.Rows != x.Rows || y.Cols != x.Cols {
			invariant.Failf("tensor: addLayerNormF32 %dx%d + %dx%d", x.Rows, x.Cols, y.Rows, y.Cols)
		}
		yd = y.Data
	}
	addLayerNormRowsF32(out.Data, x.Data, yd, gain.Data, bias.Data, x.Rows, x.Cols, eps)
	return out
}

// AttentionBlocksF32 runs scaled-dot-product attention independently inside
// each of the `blocks` equal row blocks of q/k/v (see AttentionBlocks; the
// f32 tier has a single numerics mode, so there is no exact flag).
//
//mpgraph:noalloc
func (c *Ctx) AttentionBlocksF32(q, k, v *F32Tensor, blocks int, scale float32) *F32Tensor {
	requireCtx(c, "AttentionBlocksF32")
	if blocks <= 0 || q.Rows%blocks != 0 {
		invariant.Failf("tensor: attentionBlocksF32 %d rows over %d blocks", q.Rows, blocks)
	}
	if q.Cols != k.Cols || q.Rows != k.Rows || k.Rows != v.Rows {
		invariant.Failf("tensor: attentionBlocksF32 q %dx%d k %dx%d v %dx%d",
			q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols)
	}
	t := q.Rows / blocks
	d := q.Cols
	dv := v.Cols
	out := c.zerosF32(q.Rows, dv)
	kT := c.f32.takeUninit(d * t)
	scores := c.f32.takeUninit(2 * t * t)
	scores, tmp := scores[:t*t], scores[t*t:]
	for blk := 0; blk < blocks; blk++ {
		transposeScale(kT, k.Data[blk*t*d:(blk+1)*t*d], t, d, scale)
		clear(scores)
		gemmBatchF32(scores, q.Data[blk*t*d:(blk+1)*t*d], kT, t, d, t)
		softmaxRowsF32(scores, tmp, t, t)
		gemmBatchF32(out.Data[blk*t*dv:(blk+1)*t*dv], scores, v.Data[blk*t*dv:(blk+1)*t*dv], t, t, dv)
	}
	return out
}

// MeanRowsBatchF32 reduces each block of rows to its mean row:
// [blocks*T x d] -> [blocks x d].
//
//mpgraph:noalloc
func (c *Ctx) MeanRowsBatchF32(a *F32Tensor, blocks int) *F32Tensor {
	requireCtx(c, "MeanRowsBatchF32")
	if blocks <= 0 || a.Rows%blocks != 0 {
		invariant.Failf("tensor: meanRowsBatchF32 %d rows over %d blocks", a.Rows, blocks)
	}
	t := a.Rows / blocks
	out := c.zerosF32(blocks, a.Cols)
	inv := 1 / float32(t)
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

// AddPosBatchF32 adds a [T x d] positional table to every block of a stacked
// [blocks*T x d] tensor.
//
//mpgraph:noalloc
func (c *Ctx) AddPosBatchF32(a, pos *F32Tensor, blocks int) *F32Tensor {
	requireCtx(c, "AddPosBatchF32")
	if blocks <= 0 || a.Rows != blocks*pos.Rows || a.Cols != pos.Cols {
		invariant.Failf("tensor: addPosBatchF32 %dx%d + %dx%d over %d blocks",
			a.Rows, a.Cols, pos.Rows, pos.Cols, blocks)
	}
	out := c.uninitF32(a.Rows, a.Cols)
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

// ConcatRowsBatch2F32 interleaves two stacked tensors block by block (the
// batched ConcatRows2F32 the modality-fusion layer needs).
//
//mpgraph:noalloc
func (c *Ctx) ConcatRowsBatch2F32(a, b *F32Tensor, blocks int) *F32Tensor {
	requireCtx(c, "ConcatRowsBatch2F32")
	if blocks <= 0 || a.Cols != b.Cols || a.Rows%blocks != 0 || b.Rows%blocks != 0 {
		invariant.Failf("tensor: concatRowsBatch2F32 %dx%d + %dx%d over %d blocks",
			a.Rows, a.Cols, b.Rows, b.Cols, blocks)
	}
	ta := a.Rows / blocks
	tb := b.Rows / blocks
	d := a.Cols
	out := c.uninitF32(a.Rows+b.Rows, d)
	for blk := 0; blk < blocks; blk++ {
		base := blk * (ta + tb) * d
		copy(out.Data[base:base+ta*d], a.Data[blk*ta*d:(blk+1)*ta*d])
		copy(out.Data[base+ta*d:base+(ta+tb)*d], b.Data[blk*tb*d:(blk+1)*tb*d])
	}
	return out
}

// AddRowPerBlockF32 adds table row ids[i] to every row of block i (the
// per-phase embedding add).
//
//mpgraph:noalloc
func (c *Ctx) AddRowPerBlockF32(a, table *F32Tensor, ids []int, blocks int) *F32Tensor {
	requireCtx(c, "AddRowPerBlockF32")
	if blocks <= 0 || len(ids) != blocks || a.Rows%blocks != 0 || table.Cols != a.Cols {
		invariant.Failf("tensor: addRowPerBlockF32 %dx%d, %d ids over %d blocks",
			a.Rows, a.Cols, len(ids), blocks)
	}
	t := a.Rows / blocks
	d := a.Cols
	out := c.uninitF32(a.Rows, a.Cols)
	for blk, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: addRowPerBlockF32 id %d of %d rows", id, table.Rows)
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

// GatherRowsStrideF32 copies count rows starting at `first`, striding by
// `stride` rows — the LSTM timestep gather.
//
//mpgraph:noalloc
func (c *Ctx) GatherRowsStrideF32(a *F32Tensor, first, stride, count int) *F32Tensor {
	requireCtx(c, "GatherRowsStrideF32")
	if count <= 0 || stride <= 0 || first < 0 || first+(count-1)*stride >= a.Rows {
		invariant.Failf("tensor: gatherRowsStrideF32 first %d stride %d count %d of %d rows",
			first, stride, count, a.Rows)
	}
	out := c.uninitF32(count, a.Cols)
	d := a.Cols
	for i := 0; i < count; i++ {
		src := (first + i*stride) * d
		copy(out.Data[i*d:(i+1)*d], a.Data[src:src+d])
	}
	return out
}

package nn

import (
	"math"

	"mpgraph/internal/tensor"
)

// Batched forwards for the int8 mirror layers. The quantized per-row kernels
// (QuantizeActs, QLinearActQ, QMLP) are batch-oblivious: each output row is
// an exact int32 dot of its own quantized activation row, so they run on the
// stacked block unchanged. Only attention must know the session boundary,
// and it uses AttentionBlocks in exact mode — the scalar score/softmax/AV
// kernels, block by block. Sequential int8 attention is the blocks=1 case of
// the same code, which is why the batched int8 tier is bit-identical to
// sequential int8 inference.

// ForwardBatchCtx attends independently inside each session block of the
// stacked sequence through the int8 projection kernels.
//
//mpgraph:noalloc
func (s *QSelfAttention) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	if s.src != nil {
		s.in.Observe(x.Data)
		return s.src.ForwardBatchCtx(c, x, blocks)
	}
	xq := c.QuantizeActs(x, s.scale)
	q := c.QLinearActQ(xq, x.Rows, s.scale, s.Wq, s.bq, tensor.ActNone)
	k := c.QLinearActQ(xq, x.Rows, s.scale, s.Wk, s.bk, tensor.ActNone)
	v := c.QLinearActQ(xq, x.Rows, s.scale, s.Wv, s.bv, tensor.ActNone)
	return tensor.AttentionBlocks(c, q, k, v, blocks, 1/math.Sqrt(float64(s.dim)), true)
}

// ForwardBatchCtx runs every int8 head over the stacked block and
// reprojects through the (batch-oblivious) int8 output projection.
//
//mpgraph:noalloc
func (m *QMultiHeadSelfAttention) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	outs := tensor.Ptrs[float64](c, len(m.Heads))
	for i, h := range m.Heads {
		outs[i] = h.ForwardBatchCtx(c, x, blocks)
	}
	return m.Wo.ForwardCtx(c, tensor.ConcatColsCtx(c, outs))
}

// ForwardBatchCtx applies the int8 layer to the stacked block; residuals and
// the shared float layer norms are row-wise and need no batch form.
//
//mpgraph:noalloc
func (t *QTransformerLayer) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	x = t.n1.ForwardAddCtx(c, x, t.MSA.ForwardBatchCtx(c, x, blocks))
	return t.n2.ForwardAddCtx(c, x, t.FF.ForwardCtx(c, x))
}

// ForwardBatchCtx2 fuses two stacked modality sequences block by block
// through the int8 fusion attention.
//
//mpgraph:noalloc
func (m *QMMAF) ForwardBatchCtx2(c *tensor.Ctx, a, b *tensor.Tensor, blocks int) *tensor.Tensor {
	return m.Attn.ForwardBatchCtx(c, tensor.ConcatRowsBatch2(c, a, b, blocks), blocks)
}

package nn

import (
	"math"

	"mpgraph/internal/tensor"
)

// Single-precision mirrors of the ForwardCtx layer set (DESIGN.md §13).
// Unlike the int8 mirrors there is no calibration phase: f32 keeps enough
// mantissa that weights are narrowed once at construction (or widened from
// an f16 snapshot) and used directly. Float64 stays the training and
// autograd reference; the f32 tier is inference-only, so every forward
// requires a non-nil ctx — model-level callers fall back to their float64
// source when no arena is available.

// F32Linear is the f32 mirror of Linear.
type F32Linear struct {
	W *tensor.F32Tensor // [in x out]
	B *tensor.F32Tensor // [1 x out]
}

// NewF32Linear narrows l's weights into an f32 mirror.
func NewF32Linear(l *Linear) *F32Linear {
	return &F32Linear{W: tensor.NarrowF32(l.W), B: tensor.NarrowF32(l.B)}
}

// ForwardActCtx applies the layer with a fused activation.
//
//mpgraph:noalloc
func (l *F32Linear) ForwardActCtx(c *tensor.Ctx, x *tensor.F32Tensor, act tensor.Act) *tensor.F32Tensor {
	return c.LinearActF32(x, l.W, l.B, act)
}

// ForwardCtx applies the layer with no activation.
//
//mpgraph:noalloc
func (l *F32Linear) ForwardCtx(c *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	return l.ForwardActCtx(c, x, tensor.ActNone)
}

// F32Embedding is the f32 mirror of Embedding.
type F32Embedding struct {
	Table *tensor.F32Tensor // [vocab x dim]
}

// NewF32Embedding narrows e's table into an f32 mirror.
func NewF32Embedding(e *Embedding) *F32Embedding {
	return &F32Embedding{Table: tensor.NarrowF32(e.Table)}
}

// ForwardCtx looks up ids.
//
//mpgraph:noalloc
func (e *F32Embedding) ForwardCtx(c *tensor.Ctx, ids []int) *tensor.F32Tensor {
	return c.EmbeddingLookupF32(e.Table, ids)
}

// Vocab returns the table's vocabulary size.
func (e *F32Embedding) Vocab() int { return e.Table.Rows }

// F32LayerNorm is the f32 mirror of LayerNorm.
type F32LayerNorm struct {
	Gain *tensor.F32Tensor
	Bias *tensor.F32Tensor
	Eps  float32
}

// NewF32LayerNorm narrows l's gain and bias into an f32 mirror.
func NewF32LayerNorm(l *LayerNorm) *F32LayerNorm {
	return &F32LayerNorm{
		Gain: tensor.NarrowF32(l.Gain),
		Bias: tensor.NarrowF32(l.Bias),
		Eps:  float32(l.Eps),
	}
}

// ForwardCtx normalises x rows in one fused pass.
//
//mpgraph:noalloc
func (l *F32LayerNorm) ForwardCtx(c *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	return l.ForwardAddCtx(c, x, nil)
}

// ForwardAddCtx normalises the rows of x + res as one fused op (res nil: x
// alone).
//
//mpgraph:noalloc
func (l *F32LayerNorm) ForwardAddCtx(c *tensor.Ctx, x, res *tensor.F32Tensor) *tensor.F32Tensor {
	return c.AddLayerNormF32(x, res, l.Gain, l.Bias, l.Eps)
}

// F32SelfAttention is the f32 mirror of SelfAttention. Scores, softmax and
// the value GEMM all stay in f32 through the block-attention kernel.
type F32SelfAttention struct {
	Wq, Wk, Wv *F32Linear
	dim        int
}

// NewF32SelfAttention narrows s's projections into an f32 mirror.
func NewF32SelfAttention(s *SelfAttention) *F32SelfAttention {
	return &F32SelfAttention{
		Wq:  NewF32Linear(s.Wq),
		Wk:  NewF32Linear(s.Wk),
		Wv:  NewF32Linear(s.Wv),
		dim: s.dim,
	}
}

// ForwardCtx attends over x [T x in] and returns [T x dim]. One sequence is
// the blocks=1 case of the batched kernel, so sequential and batched f32
// attention share one code path (and bits).
//
//mpgraph:noalloc
func (s *F32SelfAttention) ForwardCtx(c *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	return s.ForwardBatchCtx(c, x, 1)
}

// ForwardBatchCtx attends independently inside each of the `blocks` session
// blocks of the stacked sequence.
//
//mpgraph:noalloc
func (s *F32SelfAttention) ForwardBatchCtx(c *tensor.Ctx, x *tensor.F32Tensor, blocks int) *tensor.F32Tensor {
	q := s.Wq.ForwardCtx(c, x)
	k := s.Wk.ForwardCtx(c, x)
	v := s.Wv.ForwardCtx(c, x)
	return c.AttentionBlocksF32(q, k, v, blocks, float32(1/math.Sqrt(float64(s.dim))))
}

// F32MultiHeadSelfAttention is the f32 mirror of MultiHeadSelfAttention.
type F32MultiHeadSelfAttention struct {
	Heads []*F32SelfAttention
	Wo    *F32Linear
}

// NewF32MultiHeadSelfAttention mirrors every head and the output projection.
func NewF32MultiHeadSelfAttention(m *MultiHeadSelfAttention) *F32MultiHeadSelfAttention {
	f := &F32MultiHeadSelfAttention{Wo: NewF32Linear(m.Wo)}
	for _, h := range m.Heads {
		f.Heads = append(f.Heads, NewF32SelfAttention(h))
	}
	return f
}

// ForwardCtx attends over x with every head and reprojects.
//
//mpgraph:noalloc
func (m *F32MultiHeadSelfAttention) ForwardCtx(c *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	return m.ForwardBatchCtx(c, x, 1)
}

// ForwardBatchCtx runs every head over the stacked block and reprojects.
//
//mpgraph:noalloc
func (m *F32MultiHeadSelfAttention) ForwardBatchCtx(c *tensor.Ctx, x *tensor.F32Tensor, blocks int) *tensor.F32Tensor {
	outs := c.F32Ptrs(len(m.Heads))
	for i, h := range m.Heads {
		outs[i] = h.ForwardBatchCtx(c, x, blocks)
	}
	return m.Wo.ForwardCtx(c, c.ConcatColsF32(outs))
}

// F32FFN is the f32 mirror of FFN, ReLU fused into the first GEMM.
type F32FFN struct {
	L1, L2 *F32Linear
}

// NewF32FFN mirrors both linear layers.
func NewF32FFN(f *FFN) *F32FFN { return &F32FFN{L1: NewF32Linear(f.L1), L2: NewF32Linear(f.L2)} }

// ForwardCtx applies max(0, xW1+b1)W2+b2.
//
//mpgraph:noalloc
func (f *F32FFN) ForwardCtx(c *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	return f.L2.ForwardCtx(c, f.L1.ForwardActCtx(c, x, tensor.ActReLU))
}

// F32TransformerLayer is the f32 mirror of TransformerLayer.
type F32TransformerLayer struct {
	MSA *F32MultiHeadSelfAttention
	FF  *F32FFN
	N1  *F32LayerNorm
	N2  *F32LayerNorm
}

// NewF32TransformerLayer mirrors the attention, FFN and norm blocks.
func NewF32TransformerLayer(t *TransformerLayer) *F32TransformerLayer {
	return &F32TransformerLayer{
		MSA: NewF32MultiHeadSelfAttention(t.MSA),
		FF:  NewF32FFN(t.FF),
		N1:  NewF32LayerNorm(t.N1),
		N2:  NewF32LayerNorm(t.N2),
	}
}

// ForwardCtx applies the layer to x [T x dim].
//
//mpgraph:noalloc
func (t *F32TransformerLayer) ForwardCtx(c *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	return t.ForwardBatchCtx(c, x, 1)
}

// ForwardBatchCtx applies the layer to the stacked block; attention respects
// session boundaries, residuals and norms are row-wise.
//
//mpgraph:noalloc
func (t *F32TransformerLayer) ForwardBatchCtx(c *tensor.Ctx, x *tensor.F32Tensor, blocks int) *tensor.F32Tensor {
	x = t.N1.ForwardAddCtx(c, x, t.MSA.ForwardBatchCtx(c, x, blocks))
	return t.N2.ForwardAddCtx(c, x, t.FF.ForwardCtx(c, x))
}

// F32MMAF is the f32 mirror of the multi-modality attention fusion layer.
type F32MMAF struct {
	Attn *F32SelfAttention
}

// NewF32MMAF mirrors the fusion attention.
func NewF32MMAF(m *MMAF) *F32MMAF { return &F32MMAF{Attn: NewF32SelfAttention(m.Attn)} }

// ForwardBatchCtx2 fuses two stacked modality sequences block by block.
//
//mpgraph:noalloc
func (m *F32MMAF) ForwardBatchCtx2(c *tensor.Ctx, a, b *tensor.F32Tensor, blocks int) *tensor.F32Tensor {
	return m.Attn.ForwardBatchCtx(c, c.ConcatRowsBatch2F32(a, b, blocks), blocks)
}

// F32MLP is the f32 mirror of MLP, ReLUs fused into the hidden GEMMs.
type F32MLP struct {
	Layers []*F32Linear
}

// NewF32MLP mirrors every layer.
func NewF32MLP(m *MLP) *F32MLP {
	f := &F32MLP{}
	for _, l := range m.Layers {
		f.Layers = append(f.Layers, NewF32Linear(l))
	}
	return f
}

// ForwardCtx applies the MLP and returns raw logits.
//
//mpgraph:noalloc
func (m *F32MLP) ForwardCtx(c *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	for i, l := range m.Layers {
		act := tensor.ActReLU
		if i+1 == len(m.Layers) {
			act = tensor.ActNone
		}
		x = l.ForwardActCtx(c, x, act)
	}
	return x
}

// F32LSTM is the f32 mirror of LSTM.
type F32LSTM struct {
	Wxi, Whi, Bi *tensor.F32Tensor
	Wxf, Whf, Bf *tensor.F32Tensor
	Wxg, Whg, Bg *tensor.F32Tensor
	Wxo, Who, Bo *tensor.F32Tensor
	Hidden       int
}

// NewF32LSTM narrows l's gate weights into an f32 mirror.
func NewF32LSTM(l *LSTM) *F32LSTM {
	n := tensor.NarrowF32
	return &F32LSTM{
		Wxi: n(l.Wxi), Whi: n(l.Whi), Bi: n(l.Bi),
		Wxf: n(l.Wxf), Whf: n(l.Whf), Bf: n(l.Bf),
		Wxg: n(l.Wxg), Whg: n(l.Whg), Bg: n(l.Bg),
		Wxo: n(l.Wxo), Who: n(l.Who), Bo: n(l.Bo),
		Hidden: l.Hidden,
	}
}

// ForwardCtx consumes the sequence x [T x in] and returns the final hidden
// state [1 x hidden]: one sequence is the blocks=1 case of ForwardBatchCtx.
//
//mpgraph:noalloc
func (l *F32LSTM) ForwardCtx(ctx *tensor.Ctx, x *tensor.F32Tensor) *tensor.F32Tensor {
	return l.ForwardBatchCtx(ctx, x, 1)
}

// ForwardBatchCtx consumes `blocks` stacked sequences step-synchronously,
// mirroring LSTM.ForwardBatchCtx. Returns the final hidden states
// [blocks x hidden].
//
//mpgraph:noalloc
func (l *F32LSTM) ForwardBatchCtx(ctx *tensor.Ctx, x *tensor.F32Tensor, blocks int) *tensor.F32Tensor {
	t := x.Rows / blocks
	h := ctx.ZerosF32(blocks, l.Hidden)
	c := ctx.ZerosF32(blocks, l.Hidden)
	for step := 0; step < t; step++ {
		xt := ctx.GatherRowsStrideF32(x, step, t, blocks)
		i := ctx.Linear2ActF32(xt, l.Wxi, h, l.Whi, l.Bi, tensor.ActSigmoid)
		f := ctx.Linear2ActF32(xt, l.Wxf, h, l.Whf, l.Bf, tensor.ActSigmoid)
		g := ctx.Linear2ActF32(xt, l.Wxg, h, l.Whg, l.Bg, tensor.ActTanh)
		o := ctx.Linear2ActF32(xt, l.Wxo, h, l.Who, l.Bo, tensor.ActSigmoid)
		for j := range c.Data {
			cv := f.Data[j]*c.Data[j] + i.Data[j]*g.Data[j]
			c.Data[j] = cv
			h.Data[j] = cv
		}
		tensor.ApplyActFastF32(h.Data, tensor.ActTanh) //mpgraph:allow noalloc -- in-place over the arena row; the cross-package naming rule keys on Ctx/Into suffixes
		for j := range h.Data {
			h.Data[j] *= o.Data[j]
		}
	}
	return h
}

package nn

import (
	"math"
	"math/rand"

	"mpgraph/internal/invariant"
	"mpgraph/internal/tensor"
)

// Linear is a fully-connected layer y = xW + b.
type Linear struct {
	W *tensor.Tensor // [in x out]
	B *tensor.Tensor // [1 x out]
}

// NewLinear builds a Linear with Xavier-style initialisation.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	scale := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: tensor.Randn(in, out, scale, rng).Param(),
		B: tensor.Zeros(1, out).Param(),
	}
}

// Forward applies the layer to x [T x in].
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return l.ForwardCtx(nil, x)
}

// ForwardCtx is Forward on the ctx fast path (fused GEMM+bias when c is
// non-nil, the autograd composition when c is nil). Like every row-wise
// layer it is batch-oblivious: a stacked [blocks*T x in] input is the same
// kernel at more rows.
//
//mpgraph:noalloc
func (l *Linear) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return c.LinearAct(x, l.W, l.B, tensor.ActNone)
}

// Params implements Module.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Embedding maps integer ids to dense rows.
type Embedding struct {
	Table *tensor.Tensor // [vocab x dim]
}

// NewEmbedding builds a vocab x dim embedding table.
func NewEmbedding(vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{Table: tensor.Randn(vocab, dim, 0.1, rng).Param()}
}

// Forward looks up ids.
func (e *Embedding) Forward(ids []int) *tensor.Tensor {
	return e.ForwardCtx(nil, ids)
}

// ForwardCtx looks up ids on the ctx fast path.
//
//mpgraph:noalloc
func (e *Embedding) ForwardCtx(c *tensor.Ctx, ids []int) *tensor.Tensor {
	return c.EmbeddingLookup(e.Table, ids)
}

// Params implements Module.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.Table} }

// Vocab returns the table's vocabulary size.
func (e *Embedding) Vocab() int { return e.Table.Rows }

// LayerNorm normalises each row and applies a learnable gain and bias.
type LayerNorm struct {
	Gain *tensor.Tensor
	Bias *tensor.Tensor
	Eps  float64
}

// NewLayerNorm builds a LayerNorm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	g := tensor.Zeros(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{Gain: g.Param(), Bias: tensor.Zeros(1, dim).Param(), Eps: 1e-5}
}

// Forward normalises x rows.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	return l.ForwardCtx(nil, x)
}

// ForwardCtx normalises x rows, in one fused pass on the ctx fast path.
//
//mpgraph:noalloc
func (l *LayerNorm) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return l.ForwardAddCtx(c, x, nil)
}

// ForwardAddCtx normalises the rows of x + res — a residual connection and
// the norm after it as one fused op (res nil: x alone).
//
//mpgraph:noalloc
func (l *LayerNorm) ForwardAddCtx(c *tensor.Ctx, x, res *tensor.Tensor) *tensor.Tensor {
	return c.AddLayerNorm(x, res, l.Gain, l.Bias, l.Eps)
}

// Params implements Module.
func (l *LayerNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Gain, l.Bias} }

// SelfAttention is single-head scaled dot-product self-attention (Eq. 7):
// Attention(Q,K,V) = softmax(QKᵀ/√d)·V with Q,K,V linear projections of the
// input sequence.
type SelfAttention struct {
	Wq, Wk, Wv *Linear
	dim        int
}

// NewSelfAttention projects in-dim inputs to dim-sized Q/K/V.
func NewSelfAttention(in, dim int, rng *rand.Rand) *SelfAttention {
	return &SelfAttention{
		Wq:  NewLinear(in, dim, rng),
		Wk:  NewLinear(in, dim, rng),
		Wv:  NewLinear(in, dim, rng),
		dim: dim,
	}
}

// Forward attends over x [T x in] and returns [T x dim].
func (s *SelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	return s.ForwardCtx(nil, x)
}

// ForwardCtx attends over x on the ctx fast path: one sequence is the
// blocks=1 case of ForwardBatchCtx.
//
//mpgraph:noalloc
func (s *SelfAttention) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return s.ForwardBatchCtx(c, x, 1)
}

// ForwardBatchCtx attends independently inside each of the `blocks` session
// blocks of the stacked sequence x [blocks*T x in] (one fused block-attention
// op). A nil ctx is autograd and takes one sequence.
//
//mpgraph:noalloc
func (s *SelfAttention) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	q := s.Wq.ForwardCtx(c, x)
	k := s.Wk.ForwardCtx(c, x)
	v := s.Wv.ForwardCtx(c, x)
	return c.AttentionBlocks(q, k, v, blocks, 1/math.Sqrt(float64(s.dim)), false)
}

// Params implements Module.
func (s *SelfAttention) Params() []*tensor.Tensor { return collect(s.Wq, s.Wk, s.Wv) }

// MultiHeadSelfAttention is Eq. 9: H parallel attention heads concatenated
// and reprojected.
type MultiHeadSelfAttention struct {
	Heads []*SelfAttention
	Wo    *Linear
}

// NewMultiHeadSelfAttention builds heads of size dim/heads over dim inputs.
func NewMultiHeadSelfAttention(dim, heads int, rng *rand.Rand) *MultiHeadSelfAttention {
	if dim%heads != 0 {
		invariant.Fail("nn: dim must divide by heads")
	}
	m := &MultiHeadSelfAttention{Wo: NewLinear(dim, dim, rng)}
	for h := 0; h < heads; h++ {
		m.Heads = append(m.Heads, NewSelfAttention(dim, dim/heads, rng))
	}
	return m
}

// Forward attends over x [T x dim] and returns [T x dim].
func (m *MultiHeadSelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardCtx(nil, x)
}

// ForwardCtx attends over x on the ctx fast path.
//
//mpgraph:noalloc
func (m *MultiHeadSelfAttention) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardBatchCtx(c, x, 1)
}

// ForwardBatchCtx runs every head over the stacked block and reprojects.
//
//mpgraph:noalloc
func (m *MultiHeadSelfAttention) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	outs := c.Ptrs(len(m.Heads))
	for i, h := range m.Heads {
		outs[i] = h.ForwardBatchCtx(c, x, blocks)
	}
	return m.Wo.ForwardCtx(c, c.ConcatCols(outs...))
}

// Params implements Module.
func (m *MultiHeadSelfAttention) Params() []*tensor.Tensor {
	ms := make([]Module, 0, len(m.Heads)+1)
	for _, h := range m.Heads {
		ms = append(ms, h)
	}
	ms = append(ms, m.Wo)
	return collect(ms...)
}

// FFN is the Transformer point-wise feed-forward network (Eq. 10).
type FFN struct {
	L1, L2 *Linear
}

// NewFFN builds dim → hidden → dim.
func NewFFN(dim, hidden int, rng *rand.Rand) *FFN {
	return &FFN{L1: NewLinear(dim, hidden, rng), L2: NewLinear(hidden, dim, rng)}
}

// Forward applies max(0, xW1+b1)W2+b2.
func (f *FFN) Forward(x *tensor.Tensor) *tensor.Tensor {
	return f.ForwardCtx(nil, x)
}

// ForwardCtx applies the FFN with the ReLU fused into the first GEMM on the
// ctx fast path.
//
//mpgraph:noalloc
func (f *FFN) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return f.L2.ForwardCtx(c, c.LinearAct(x, f.L1.W, f.L1.B, tensor.ActReLU))
}

// Params implements Module.
func (f *FFN) Params() []*tensor.Tensor { return collect(f.L1, f.L2) }

// TransformerLayer is MSA + FFN with residual connections and layer norms.
type TransformerLayer struct {
	MSA *MultiHeadSelfAttention
	FF  *FFN
	N1  *LayerNorm
	N2  *LayerNorm
}

// NewTransformerLayer builds one layer of width dim with the given heads and
// a 2x FFN expansion.
func NewTransformerLayer(dim, heads int, rng *rand.Rand) *TransformerLayer {
	return &TransformerLayer{
		MSA: NewMultiHeadSelfAttention(dim, heads, rng),
		FF:  NewFFN(dim, 2*dim, rng),
		N1:  NewLayerNorm(dim),
		N2:  NewLayerNorm(dim),
	}
}

// Forward applies the layer to x [T x dim].
func (t *TransformerLayer) Forward(x *tensor.Tensor) *tensor.Tensor {
	return t.ForwardCtx(nil, x)
}

// ForwardCtx applies the layer on the ctx fast path.
//
//mpgraph:noalloc
func (t *TransformerLayer) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return t.ForwardBatchCtx(c, x, 1)
}

// ForwardBatchCtx applies the layer to the stacked block; attention respects
// session boundaries, residuals, norms and the FFN are row-wise.
//
//mpgraph:noalloc
func (t *TransformerLayer) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	x = t.N1.ForwardAddCtx(c, x, t.MSA.ForwardBatchCtx(c, x, blocks))
	return t.N2.ForwardAddCtx(c, x, t.FF.ForwardCtx(c, x))
}

// Params implements Module.
func (t *TransformerLayer) Params() []*tensor.Tensor { return collect(t.MSA, t.FF, t.N1, t.N2) }

// MMAF is the multi-modality attention fusion layer (Eq. 8): the modality
// sequences are concatenated along the sequence axis and fused by one
// self-attention over the combined sequence.
type MMAF struct {
	Attn *SelfAttention
}

// NewMMAF fuses in-dim modality embeddings into dim features.
func NewMMAF(in, dim int, rng *rand.Rand) *MMAF {
	return &MMAF{Attn: NewSelfAttention(in, dim, rng)}
}

// Forward fuses the modality sequences (each [Ti x in]) into
// [ΣTi x dim].
func (m *MMAF) Forward(modalities ...*tensor.Tensor) *tensor.Tensor {
	return m.ForwardCtx(nil, modalities...)
}

// ForwardCtx fuses the modality sequences on the ctx fast path.
//
//mpgraph:noalloc
func (m *MMAF) ForwardCtx(c *tensor.Ctx, modalities ...*tensor.Tensor) *tensor.Tensor {
	return m.Attn.ForwardCtx(c, c.ConcatRows(modalities...))
}

// ForwardBatchCtx2 fuses exactly two stacked modality sequences block by
// block — the AMMA hot path. The fixed arity avoids the escaping variadic
// slice a ForwardCtx call site would build.
//
//mpgraph:noalloc
func (m *MMAF) ForwardBatchCtx2(c *tensor.Ctx, a, b *tensor.Tensor, blocks int) *tensor.Tensor {
	return m.Attn.ForwardBatchCtx(c, c.ConcatRowsBatch2(a, b, blocks), blocks)
}

// Params implements Module.
func (m *MMAF) Params() []*tensor.Tensor { return m.Attn.Params() }

// MLP is a multi-layer perceptron head with ReLU between layers and raw
// logits out.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP over the given layer widths (len >= 2).
func NewMLP(widths []int, rng *rand.Rand) *MLP {
	if len(widths) < 2 {
		invariant.Fail("nn: MLP needs at least input and output widths")
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewLinear(widths[i], widths[i+1], rng))
	}
	return m
}

// Forward applies the MLP to x.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardCtx(nil, x)
}

// ForwardCtx applies the MLP with ReLUs fused into the hidden GEMMs on the
// ctx fast path.
//
//mpgraph:noalloc
func (m *MLP) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		act := tensor.ActReLU
		if i+1 == len(m.Layers) {
			act = tensor.ActNone
		}
		x = c.LinearAct(x, l.W, l.B, act)
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*tensor.Tensor {
	ms := make([]Module, len(m.Layers))
	for i, l := range m.Layers {
		ms[i] = l
	}
	return collect(ms...)
}

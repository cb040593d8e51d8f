package nn

import (
	"math"
	"math/rand"

	"mpgraph/internal/invariant"
	"mpgraph/internal/tensor"
)

// Every layer is written once over its element type T and named twice: the
// plain name is the float64 instantiation — trainable, and the autograd
// reference on a nil ctx — and the F32 name is the single-precision
// inference mirror (DESIGN.md §8), built from a trained float64 layer by its
// narrowing constructor and usable on a live ctx only. f32 keeps enough
// mantissa that weights are narrowed once and used directly, with no
// calibration phase.

// LinearOf is a fully-connected layer y = xW + b.
type LinearOf[T float32 | float64] struct {
	W *tensor.Dense[T] // [in x out]
	B *tensor.Dense[T] // [1 x out]
}

// Linear is the float64 instantiation, F32Linear the f32 inference mirror.
type (
	Linear    = LinearOf[float64]
	F32Linear = LinearOf[float32]
)

// NewLinear builds a Linear with Xavier-style initialisation.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	scale := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: tensor.Randn(in, out, scale, rng).Param(),
		B: tensor.Zeros(1, out).Param(),
	}
}

// NewF32Linear narrows l's weights into an f32 mirror.
func NewF32Linear(l *Linear) *F32Linear {
	return &F32Linear{W: tensor.NarrowF32(l.W), B: tensor.NarrowF32(l.B)}
}

// ForwardCtx applies the layer to x [T x in]: fused GEMM+bias when c is
// non-nil, the autograd composition when c is nil. Like every row-wise
// layer it is batch-oblivious: a stacked [blocks*T x in] input is the same
// kernel at more rows.
//
//mpgraph:noalloc
func (l *LinearOf[T]) ForwardCtx(c *tensor.Ctx, x *tensor.Dense[T]) *tensor.Dense[T] {
	return l.ForwardActCtx(c, x, tensor.ActNone)
}

// ForwardActCtx applies the layer with a fused activation.
//
//mpgraph:noalloc
func (l *LinearOf[T]) ForwardActCtx(c *tensor.Ctx, x *tensor.Dense[T], act tensor.Act) *tensor.Dense[T] {
	return tensor.LinearAct(c, x, l.W, l.B, act)
}

// Params implements Module.
func (l *LinearOf[T]) Params() []*tensor.Dense[T] { return []*tensor.Dense[T]{l.W, l.B} }

// EmbeddingOf maps integer ids to dense rows.
type EmbeddingOf[T float32 | float64] struct {
	Table *tensor.Dense[T] // [vocab x dim]
}

// Embedding is the float64 instantiation, F32Embedding the f32 inference mirror.
type (
	Embedding    = EmbeddingOf[float64]
	F32Embedding = EmbeddingOf[float32]
)

// NewEmbedding builds a vocab x dim embedding table.
func NewEmbedding(vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{Table: tensor.Randn(vocab, dim, 0.1, rng).Param()}
}

// NewF32Embedding narrows e's table into an f32 mirror.
func NewF32Embedding(e *Embedding) *F32Embedding {
	return &F32Embedding{Table: tensor.NarrowF32(e.Table)}
}

// ForwardCtx looks up ids on the ctx fast path.
//
//mpgraph:noalloc
func (e *EmbeddingOf[T]) ForwardCtx(c *tensor.Ctx, ids []int) *tensor.Dense[T] {
	return tensor.EmbeddingLookupCtx(c, e.Table, ids)
}

// Params implements Module.
func (e *EmbeddingOf[T]) Params() []*tensor.Dense[T] { return []*tensor.Dense[T]{e.Table} }

// Vocab returns the table's vocabulary size.
//
//mpgraph:noalloc
func (e *EmbeddingOf[T]) Vocab() int { return e.Table.Rows }

// LayerNormOf normalises each row and applies a learnable gain and bias.
type LayerNormOf[T float32 | float64] struct {
	Gain *tensor.Dense[T]
	Bias *tensor.Dense[T]
	Eps  T
}

// LayerNorm is the float64 instantiation, F32LayerNorm the f32 inference mirror.
type (
	LayerNorm    = LayerNormOf[float64]
	F32LayerNorm = LayerNormOf[float32]
)

// NewLayerNorm builds a LayerNorm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	g := tensor.Zeros(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{Gain: g.Param(), Bias: tensor.Zeros(1, dim).Param(), Eps: 1e-5}
}

// NewF32LayerNorm narrows l's gain and bias into an f32 mirror.
func NewF32LayerNorm(l *LayerNorm) *F32LayerNorm {
	return &F32LayerNorm{
		Gain: tensor.NarrowF32(l.Gain),
		Bias: tensor.NarrowF32(l.Bias),
		Eps:  float32(l.Eps),
	}
}

// ForwardAddCtx normalises the rows of x + res — a residual connection and
// the norm after it as one fused op (res nil: x alone).
//
//mpgraph:noalloc
func (l *LayerNormOf[T]) ForwardAddCtx(c *tensor.Ctx, x, res *tensor.Dense[T]) *tensor.Dense[T] {
	return tensor.AddLayerNorm(c, x, res, l.Gain, l.Bias, l.Eps)
}

// Params implements Module.
func (l *LayerNormOf[T]) Params() []*tensor.Dense[T] { return []*tensor.Dense[T]{l.Gain, l.Bias} }

// SelfAttentionOf is single-head scaled dot-product self-attention (Eq. 7):
// Attention(Q,K,V) = softmax(QKᵀ/√d)·V with Q,K,V linear projections of the
// input sequence. Scores, softmax and the value GEMM all stay in T.
type SelfAttentionOf[T float32 | float64] struct {
	Wq, Wk, Wv *LinearOf[T]
	dim        int
}

// SelfAttention is the float64 instantiation, F32SelfAttention the f32 inference mirror.
type (
	SelfAttention    = SelfAttentionOf[float64]
	F32SelfAttention = SelfAttentionOf[float32]
)

// NewSelfAttention projects in-dim inputs to dim-sized Q/K/V.
func NewSelfAttention(in, dim int, rng *rand.Rand) *SelfAttention {
	return &SelfAttention{
		Wq:  NewLinear(in, dim, rng),
		Wk:  NewLinear(in, dim, rng),
		Wv:  NewLinear(in, dim, rng),
		dim: dim,
	}
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

// ForwardBatchCtx attends independently inside each of the `blocks` session
// blocks of the stacked sequence x [blocks*T x in] (one fused block-attention
// op): ForwardIntoCtx over a fresh [blocks*T x dim] tensor. A nil ctx is
// autograd and takes one sequence.
//
//mpgraph:noalloc
func (s *SelfAttentionOf[T]) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Dense[T], blocks int) *tensor.Dense[T] {
	if c == nil {
		return tensor.AttentionBlocks(nil, s.Wq.ForwardCtx(nil, x), s.Wk.ForwardCtx(nil, x), s.Wv.ForwardCtx(nil, x), blocks, s.scale())
	}
	out := tensor.UninitCtx[T](c, x.Rows, s.dim)
	s.ForwardIntoCtx(c, x, blocks, out, 0)
	return out
}

// ForwardIntoCtx writes the [blocks*T x dim] attention output into columns
// colOff.. of dst (tensor.AttentionBlocksInto). Live ctx only.
//
//mpgraph:noalloc
func (s *SelfAttentionOf[T]) ForwardIntoCtx(c *tensor.Ctx, x *tensor.Dense[T], blocks int, dst *tensor.Dense[T], colOff int) {
	q := s.Wq.ForwardCtx(c, x)
	k := s.Wk.ForwardCtx(c, x)
	v := s.Wv.ForwardCtx(c, x)
	tensor.AttentionBlocksInto(c, dst, colOff, q, k, v, blocks, s.scale())
}

//mpgraph:noalloc
func (s *SelfAttentionOf[T]) scale() T { return T(1 / math.Sqrt(float64(s.dim))) }

// Params implements Module.
func (s *SelfAttentionOf[T]) Params() []*tensor.Dense[T] { return collect[T](s.Wq, s.Wk, s.Wv) }

// MultiHeadSelfAttentionOf is Eq. 9: H parallel attention heads concatenated
// and reprojected.
type MultiHeadSelfAttentionOf[T float32 | float64] struct {
	Heads []*SelfAttentionOf[T]
	Wo    *LinearOf[T]
}

// MultiHeadSelfAttention is the float64 instantiation, F32MultiHeadSelfAttention the f32 inference mirror.
type (
	MultiHeadSelfAttention    = MultiHeadSelfAttentionOf[float64]
	F32MultiHeadSelfAttention = MultiHeadSelfAttentionOf[float32]
)

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

// NewF32MultiHeadSelfAttention mirrors every head and the output projection.
func NewF32MultiHeadSelfAttention(m *MultiHeadSelfAttention) *F32MultiHeadSelfAttention {
	f := &F32MultiHeadSelfAttention{Wo: NewF32Linear(m.Wo)}
	for _, h := range m.Heads {
		f.Heads = append(f.Heads, NewF32SelfAttention(h))
	}
	return f
}

// ForwardBatchCtx runs every head over the stacked block and reprojects. On
// a live ctx each head writes its columns of the concat in place; a nil ctx
// is the autograd concat.
//
//mpgraph:noalloc
func (m *MultiHeadSelfAttentionOf[T]) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Dense[T], blocks int) *tensor.Dense[T] {
	if c == nil {
		outs := tensor.PtrsFor(c, m.Wo.W, len(m.Heads))
		for i, h := range m.Heads {
			outs[i] = h.ForwardBatchCtx(c, x, blocks)
		}
		return m.Wo.ForwardCtx(c, tensor.ConcatColsCtx(c, outs))
	}
	cat := tensor.UninitCtx[T](c, x.Rows, m.Wo.W.Rows)
	col := 0
	for _, h := range m.Heads {
		h.ForwardIntoCtx(c, x, blocks, cat, col)
		col += h.dim
	}
	return m.Wo.ForwardCtx(c, cat)
}

// Params implements Module.
func (m *MultiHeadSelfAttentionOf[T]) Params() []*tensor.Dense[T] {
	var out []*tensor.Dense[T]
	for _, h := range m.Heads {
		out = append(out, h.Params()...)
	}
	return append(out, m.Wo.Params()...)
}

// FFNOf is the Transformer point-wise feed-forward network (Eq. 10).
type FFNOf[T float32 | float64] struct {
	L1, L2 *LinearOf[T]
}

// FFN is the float64 instantiation, F32FFN the f32 inference mirror.
type (
	FFN    = FFNOf[float64]
	F32FFN = FFNOf[float32]
)

// NewFFN builds dim → hidden → dim.
func NewFFN(dim, hidden int, rng *rand.Rand) *FFN {
	return &FFN{L1: NewLinear(dim, hidden, rng), L2: NewLinear(hidden, dim, rng)}
}

// NewF32FFN mirrors both linear layers.
func NewF32FFN(f *FFN) *F32FFN { return &F32FFN{L1: NewF32Linear(f.L1), L2: NewF32Linear(f.L2)} }

// ForwardCtx applies the FFN with the ReLU fused into the first GEMM on the
// ctx fast path.
//
//mpgraph:noalloc
func (f *FFNOf[T]) ForwardCtx(c *tensor.Ctx, x *tensor.Dense[T]) *tensor.Dense[T] {
	return f.L2.ForwardCtx(c, f.L1.ForwardActCtx(c, x, tensor.ActReLU))
}

// Params implements Module.
func (f *FFNOf[T]) Params() []*tensor.Dense[T] { return collect[T](f.L1, f.L2) }

// TransformerLayerOf is MSA + FFN with residual connections and layer norms.
type TransformerLayerOf[T float32 | float64] struct {
	MSA *MultiHeadSelfAttentionOf[T]
	FF  *FFNOf[T]
	N1  *LayerNormOf[T]
	N2  *LayerNormOf[T]
}

// TransformerLayer is the float64 instantiation, F32TransformerLayer the f32 inference mirror.
type (
	TransformerLayer    = TransformerLayerOf[float64]
	F32TransformerLayer = TransformerLayerOf[float32]
)

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

// NewF32TransformerLayer mirrors the attention, FFN and norm blocks.
func NewF32TransformerLayer(t *TransformerLayer) *F32TransformerLayer {
	return &F32TransformerLayer{
		MSA: NewF32MultiHeadSelfAttention(t.MSA),
		FF:  NewF32FFN(t.FF),
		N1:  NewF32LayerNorm(t.N1),
		N2:  NewF32LayerNorm(t.N2),
	}
}

// ForwardCtx applies the layer on the ctx fast path.
//
//mpgraph:noalloc
func (t *TransformerLayerOf[T]) ForwardCtx(c *tensor.Ctx, x *tensor.Dense[T]) *tensor.Dense[T] {
	return t.ForwardBatchCtx(c, x, 1)
}

// ForwardBatchCtx applies the layer to the stacked block; attention respects
// session boundaries, residuals, norms and the FFN are row-wise.
//
//mpgraph:noalloc
func (t *TransformerLayerOf[T]) ForwardBatchCtx(c *tensor.Ctx, x *tensor.Dense[T], blocks int) *tensor.Dense[T] {
	x = t.N1.ForwardAddCtx(c, x, t.MSA.ForwardBatchCtx(c, x, blocks))
	return t.N2.ForwardAddCtx(c, x, t.FF.ForwardCtx(c, x))
}

// Params implements Module.
func (t *TransformerLayerOf[T]) Params() []*tensor.Dense[T] {
	return collect[T](t.MSA, t.FF, t.N1, t.N2)
}

// MMAFOf is the multi-modality attention fusion layer (Eq. 8): the modality
// sequences are concatenated along the sequence axis and fused by one
// self-attention over the combined sequence.
type MMAFOf[T float32 | float64] struct {
	Attn *SelfAttentionOf[T]
}

// MMAF is the float64 instantiation, F32MMAF the f32 inference mirror.
type (
	MMAF    = MMAFOf[float64]
	F32MMAF = MMAFOf[float32]
)

// NewMMAF fuses in-dim modality embeddings into dim features.
func NewMMAF(in, dim int, rng *rand.Rand) *MMAF {
	return &MMAF{Attn: NewSelfAttention(in, dim, rng)}
}

// NewF32MMAF mirrors the fusion attention.
func NewF32MMAF(m *MMAF) *F32MMAF { return &F32MMAF{Attn: NewF32SelfAttention(m.Attn)} }

// ForwardCtx fuses AMMA's two stacked modality sequences, a [blocks*Ta x in]
// and b [blocks*Tb x in], into [blocks*(Ta+Tb) x dim]: each sample's Ta rows
// over its Tb, attended within the sample. A nil ctx is autograd and takes
// one sequence pair.
//
//mpgraph:noalloc
func (m *MMAFOf[T]) ForwardCtx(c *tensor.Ctx, a, b *tensor.Dense[T], blocks int) *tensor.Dense[T] {
	return m.Attn.ForwardBatchCtx(c, tensor.ConcatRowsCtx(c, a, b, blocks), blocks)
}

// Params implements Module.
func (m *MMAFOf[T]) Params() []*tensor.Dense[T] { return m.Attn.Params() }

// MLPOf is a multi-layer perceptron head with ReLU between layers and raw
// logits out.
type MLPOf[T float32 | float64] struct {
	Layers []*LinearOf[T]
}

// MLP is the float64 instantiation, F32MLP the f32 inference mirror.
type (
	MLP    = MLPOf[float64]
	F32MLP = MLPOf[float32]
)

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

// NewF32MLP mirrors every layer.
func NewF32MLP(m *MLP) *F32MLP {
	f := &F32MLP{}
	for _, l := range m.Layers {
		f.Layers = append(f.Layers, NewF32Linear(l))
	}
	return f
}

// ForwardCtx applies the MLP with ReLUs fused into the hidden GEMMs on the
// ctx fast path.
//
//mpgraph:noalloc
func (m *MLPOf[T]) ForwardCtx(c *tensor.Ctx, x *tensor.Dense[T]) *tensor.Dense[T] {
	for i, l := range m.Layers {
		act := tensor.ActReLU
		if i+1 == len(m.Layers) {
			act = tensor.ActNone
		}
		x = l.ForwardActCtx(c, x, act)
	}
	return x
}

// Params implements Module.
func (m *MLPOf[T]) Params() []*tensor.Dense[T] {
	var out []*tensor.Dense[T]
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

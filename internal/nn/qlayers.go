package nn

// Int8 mirrors of the ForwardCtx layer set (DESIGN.md §10). Each Q-layer is
// built from a trained float layer and starts in CALIBRATION mode: forwards
// delegate to the float layer while an Observer records the input range, so
// downstream observers see true float activations. Freeze() locks the
// observed activation scale and switches the layer to the int8 kernels.
// Matrix weights are quantized (per-output-channel symmetric int8); biases,
// LayerNorm and softmax stay float — they are O(dim) work on O(dim²)
// layers and keeping them exact costs nothing.

import (
	"mpgraph/internal/tensor"
)

// Observer accumulates the maximum absolute activation value seen during
// calibration; Scale() converts it to a symmetric int8 scale.
type Observer struct {
	maxAbs float64
}

// Observe folds one activation buffer into the running range.
//
//mpgraph:noalloc
func (o *Observer) Observe(xs []float64) {
	m := o.maxAbs
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	o.maxAbs = m
}

// Scale returns the symmetric int8 scale for the observed range (1 when
// nothing was observed, so an uncalibrated layer degrades rather than
// dividing by zero).
func (o *Observer) Scale() float64 { return tensor.QuantScale(o.maxAbs) }

// QLinear is the int8 mirror of Linear: per-channel int8 weights, float
// bias, one calibrated input scale.
type QLinear struct {
	W *tensor.QTensor
	B *tensor.Tensor

	in    Observer
	scale float64
	src   *Linear // calibration source; nil once frozen
}

// NewQLinear quantizes l's weights and returns the mirror in calibration
// mode. l's bias tensor is shared, not copied.
func NewQLinear(l *Linear) *QLinear {
	return &QLinear{W: tensor.QuantizeWeights(l.W), B: l.B, src: l}
}

// ForwardActCtx applies the layer with a fused activation. In calibration
// mode it observes the input and runs the float layer; frozen, it runs the
// int8 kernel.
//
//mpgraph:noalloc
func (q *QLinear) ForwardActCtx(c *tensor.Ctx, x *tensor.Tensor, act tensor.Act) *tensor.Tensor {
	if q.src != nil {
		q.in.Observe(x.Data)
		return q.src.ForwardActCtx(c, x, act)
	}
	return c.QLinearAct(x, q.scale, q.W, q.B, act)
}

// ForwardCtx applies the layer with no activation.
//
//mpgraph:noalloc
func (q *QLinear) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return q.ForwardActCtx(c, x, tensor.ActNone)
}

// Freeze locks the calibrated activation scale and switches to int8.
func (q *QLinear) Freeze() {
	q.scale = q.in.Scale()
	q.src = nil
}

// QSelfAttention is the int8 mirror of SelfAttention. The input row is
// quantized ONCE and shared across the Q/K/V projections — three GEMMs, one
// quantization pass. Scores and softmax stay float.
type QSelfAttention struct {
	Wq, Wk, Wv *tensor.QTensor
	bq, bk, bv *tensor.Tensor
	dim        int

	in    Observer
	scale float64
	src   *SelfAttention
}

// NewQSelfAttention quantizes s's projection weights and returns the mirror
// in calibration mode.
func NewQSelfAttention(s *SelfAttention) *QSelfAttention {
	return &QSelfAttention{
		Wq: tensor.QuantizeWeights(s.Wq.W), bq: s.Wq.B,
		Wk: tensor.QuantizeWeights(s.Wk.W), bk: s.Wk.B,
		Wv: tensor.QuantizeWeights(s.Wv.W), bv: s.Wv.B,
		dim: s.dim,
		src: s,
	}
}

// ForwardCtx attends over x: one sequence is the blocks=1 case of
// ForwardBatchCtx (qlayers_batch.go).
//
//mpgraph:noalloc
func (s *QSelfAttention) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return s.ForwardBatchCtx(c, x, 1)
}

// Freeze locks the calibrated activation scale and switches to int8.
func (s *QSelfAttention) Freeze() {
	s.scale = s.in.Scale()
	s.src = nil
}

// QMultiHeadSelfAttention is the int8 mirror of MultiHeadSelfAttention.
type QMultiHeadSelfAttention struct {
	Heads []*QSelfAttention
	Wo    *QLinear
}

// NewQMultiHeadSelfAttention mirrors every head and the output projection.
func NewQMultiHeadSelfAttention(m *MultiHeadSelfAttention) *QMultiHeadSelfAttention {
	q := &QMultiHeadSelfAttention{Wo: NewQLinear(m.Wo)}
	for _, h := range m.Heads {
		q.Heads = append(q.Heads, NewQSelfAttention(h))
	}
	return q
}

// ForwardCtx attends over x with every head and reprojects: one sequence is
// the blocks=1 case of ForwardBatchCtx.
//
//mpgraph:noalloc
func (m *QMultiHeadSelfAttention) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardBatchCtx(c, x, 1)
}

// Freeze freezes every head and the output projection.
func (m *QMultiHeadSelfAttention) Freeze() {
	for _, h := range m.Heads {
		h.Freeze()
	}
	m.Wo.Freeze()
}

// QFFN is the int8 mirror of FFN, ReLU fused into the first GEMM.
type QFFN struct {
	L1, L2 *QLinear
}

// NewQFFN mirrors both linear layers.
func NewQFFN(f *FFN) *QFFN { return &QFFN{L1: NewQLinear(f.L1), L2: NewQLinear(f.L2)} }

// ForwardCtx applies max(0, xW1+b1)W2+b2 on int8 kernels.
//
//mpgraph:noalloc
func (f *QFFN) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return f.L2.ForwardCtx(c, f.L1.ForwardActCtx(c, x, tensor.ActReLU))
}

// Freeze freezes both layers.
func (f *QFFN) Freeze() {
	f.L1.Freeze()
	f.L2.Freeze()
}

// QTransformerLayer is the int8 mirror of TransformerLayer. The two
// LayerNorms are shared with the float layer and stay float.
type QTransformerLayer struct {
	MSA *QMultiHeadSelfAttention
	FF  *QFFN
	n1  *LayerNorm
	n2  *LayerNorm
}

// NewQTransformerLayer mirrors the attention and FFN blocks.
func NewQTransformerLayer(t *TransformerLayer) *QTransformerLayer {
	return &QTransformerLayer{
		MSA: NewQMultiHeadSelfAttention(t.MSA),
		FF:  NewQFFN(t.FF),
		n1:  t.N1,
		n2:  t.N2,
	}
}

// ForwardCtx applies the layer with residuals and float layer norms: one
// sequence is the blocks=1 case of ForwardBatchCtx.
//
//mpgraph:noalloc
func (t *QTransformerLayer) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	return t.ForwardBatchCtx(c, x, 1)
}

// Freeze freezes the attention and FFN blocks.
func (t *QTransformerLayer) Freeze() {
	t.MSA.Freeze()
	t.FF.Freeze()
}

// QMMAF is the int8 mirror of the multi-modality attention fusion layer.
type QMMAF struct {
	Attn *QSelfAttention
}

// NewQMMAF mirrors the fusion attention.
func NewQMMAF(m *MMAF) *QMMAF { return &QMMAF{Attn: NewQSelfAttention(m.Attn)} }

// Freeze freezes the fusion attention.
func (m *QMMAF) Freeze() { m.Attn.Freeze() }

// QMLP is the int8 mirror of MLP, ReLUs fused into the hidden GEMMs.
type QMLP struct {
	Layers []*QLinear
}

// NewQMLP mirrors every layer.
func NewQMLP(m *MLP) *QMLP {
	q := &QMLP{}
	for _, l := range m.Layers {
		q.Layers = append(q.Layers, NewQLinear(l))
	}
	return q
}

// ForwardCtx applies the MLP and returns raw logits.
//
//mpgraph:noalloc
func (m *QMLP) ForwardCtx(c *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		act := tensor.ActReLU
		if i+1 == len(m.Layers) {
			act = tensor.ActNone
		}
		x = l.ForwardActCtx(c, x, act)
	}
	return x
}

// Freeze freezes every layer.
func (m *QMLP) Freeze() {
	for _, l := range m.Layers {
		l.Freeze()
	}
}

// QuantizedBytes reports the storage of a quantized weight set: int8 weights
// plus per-channel float64 scales, with float biases kept at full width.
func (q *QLinear) QuantizedBytes() int { return q.W.StorageBytes() + 8*len(q.B.Data) }

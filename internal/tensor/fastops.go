package tensor

import "mpgraph/internal/invariant"

// Graph-free fast-path ops. Every method on *Ctx mirrors one package op (or
// a fused composition of several) and dispatches on the receiver: a nil Ctx
// runs the exact autograd op so the training path is untouched; a non-nil
// Ctx runs an arena-backed kernel that builds no graph and allocates
// nothing once the arena has warmed up.
//
// There is one live-ctx float64 kernel surface: the GEMM and activation ops
// run the batch tier's panel kernels (gemm_batch.go) at however many rows
// they are handed, so one sequence is the one-block case of a stacked batch
// and computes the same bits alone as inside any batch.
//
// Aliasing contract: fast-path results live in the arena until the next
// Reset, and in-place ops (SigmoidInPlace) may overwrite their input.
// Callers on the hot path treat op inputs as consumed.

// Zeros returns a zero rows x cols tensor (arena-backed when c is non-nil).
//
//mpgraph:noalloc
func (c *Ctx) Zeros(rows, cols int) *Tensor {
	if c == nil {
		return Zeros(rows, cols)
	}
	return c.zeros(rows, cols)
}

// Add returns a+b elementwise.
//
//mpgraph:noalloc
func (c *Ctx) Add(a, b *Tensor) *Tensor {
	if c == nil {
		return Add(a, b)
	}
	checkSameShape("add", a, b)
	out := c.uninit(a.Rows, a.Cols)
	for i, av := range a.Data {
		out.Data[i] = av + b.Data[i]
	}
	return out
}

// AddBias adds row vector bias [1 x n] to every row of a.
//
//mpgraph:noalloc
func (c *Ctx) AddBias(a, bias *Tensor) *Tensor {
	if c == nil {
		return AddBias(a, bias)
	}
	if bias.Rows != 1 || bias.Cols != a.Cols {
		invariant.Failf("tensor: addbias %dx%d + %dx%d", a.Rows, a.Cols, bias.Rows, bias.Cols)
	}
	out := c.uninit(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		for j, bv := range bias.Data {
			out.Data[base+j] = a.Data[base+j] + bv
		}
	}
	return out
}

// SigmoidInPlace applies the logistic function. The fast path runs the
// vector kernel in place and returns its input; the nil path returns a fresh
// graph tensor.
//
//mpgraph:noalloc
func (c *Ctx) SigmoidInPlace(a *Tensor) *Tensor {
	if c == nil {
		return Sigmoid(a)
	}
	applyActFast(a.Data, ActSigmoid)
	return a
}

// ConcatRows stacks tensors vertically (same Cols).
//
//mpgraph:noalloc
func (c *Ctx) ConcatRows(ts ...*Tensor) *Tensor {
	if c == nil {
		return ConcatRows(ts...)
	}
	if len(ts) == 0 {
		invariant.Fail("tensor: ConcatRows of nothing")
	}
	cols := ts[0].Cols
	rows := 0
	for _, t := range ts {
		if t.Cols != cols {
			invariant.Fail("tensor: ConcatRows column mismatch")
		}
		rows += t.Rows
	}
	out := c.uninit(rows, cols)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	return out
}

// ConcatCols stacks tensors horizontally (same Rows).
//
//mpgraph:noalloc
func (c *Ctx) ConcatCols(ts ...*Tensor) *Tensor {
	if c == nil {
		return ConcatCols(ts...)
	}
	if len(ts) == 0 {
		invariant.Fail("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			invariant.Fail("tensor: ConcatCols row mismatch")
		}
		cols += t.Cols
	}
	out := c.uninit(rows, cols)
	colOff := 0
	for _, t := range ts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*cols+colOff:r*cols+colOff+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
		}
		colOff += t.Cols
	}
	return out
}

// ConcatRows2 is ConcatRows for exactly two tensors — the arity the models'
// hot paths use. A variadic call site builds an escaping []*Tensor on the
// heap; the fixed-arity form keeps steady-state inference allocation-free.
//
//mpgraph:noalloc
func (c *Ctx) ConcatRows2(a, b *Tensor) *Tensor {
	if c == nil {
		return ConcatRows(a, b)
	}
	if a.Cols != b.Cols {
		invariant.Fail("tensor: ConcatRows column mismatch")
	}
	out := c.uninit(a.Rows+b.Rows, a.Cols)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// ConcatCols2 is ConcatCols for exactly two tensors (see ConcatRows2).
//
//mpgraph:noalloc
func (c *Ctx) ConcatCols2(a, b *Tensor) *Tensor {
	if c == nil {
		return ConcatCols(a, b)
	}
	if a.Rows != b.Rows {
		invariant.Fail("tensor: ConcatCols row mismatch")
	}
	rows, cols := a.Rows, a.Cols+b.Cols
	out := c.uninit(rows, cols)
	for r := 0; r < rows; r++ {
		copy(out.Data[r*cols:], a.Data[r*a.Cols:(r+1)*a.Cols])
		copy(out.Data[r*cols+a.Cols:], b.Data[r*b.Cols:(r+1)*b.Cols])
	}
	return out
}

// MeanRows returns the column-wise mean as a 1 x Cols tensor.
//
//mpgraph:noalloc
func (c *Ctx) MeanRows(a *Tensor) *Tensor {
	if c == nil {
		return MeanRows(a)
	}
	out := c.zeros(1, a.Cols)
	inv := 1.0 / float64(a.Rows)
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		for j := range out.Data {
			out.Data[j] += a.Data[base+j] * inv
		}
	}
	return out
}

// EmbeddingLookup gathers rows of table by ids.
//
//mpgraph:noalloc
func (c *Ctx) EmbeddingLookup(table *Tensor, ids []int) *Tensor {
	if c == nil {
		return EmbeddingLookup(table, ids)
	}
	for _, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: embedding id %d out of [0,%d)", id, table.Rows)
		}
	}
	out := c.uninit(len(ids), table.Cols)
	for i, id := range ids {
		copy(out.Data[i*table.Cols:(i+1)*table.Cols], table.Data[id*table.Cols:(id+1)*table.Cols])
	}
	return out
}

// LinearAct returns act(x@w + bias) as one fused kernel (bias may be nil):
// one pass of the weight panel over all rows of x, however many sequences
// they stack.
//
//mpgraph:noalloc
func (c *Ctx) LinearAct(x, w, bias *Tensor, act Act) *Tensor {
	if c == nil {
		out := MatMul(x, w)
		if bias != nil {
			out = AddBias(out, bias)
		}
		return applyActGraph(out, act)
	}
	if x.Cols != w.Rows {
		invariant.Failf("tensor: linear %dx%d @ %dx%d", x.Rows, x.Cols, w.Rows, w.Cols)
	}
	out := c.uninit(x.Rows, w.Cols)
	var bd []float64
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != w.Cols {
			invariant.Failf("tensor: linear bias %dx%d for width %d", bias.Rows, bias.Cols, w.Cols)
		}
		bd = bias.Data
	}
	gemmBatchBiasAct(out.Data, x.Data, w.Data, bd, x.Rows, x.Cols, w.Cols, act)
	return out
}

// Linear2Act returns act(x1@w1 + x2@w2 + bias) as one fused kernel — the
// LSTM gate composition (input product plus recurrent product).
//
//mpgraph:noalloc
func (c *Ctx) Linear2Act(x1, w1, x2, w2, bias *Tensor, act Act) *Tensor {
	if c == nil {
		out := Add(MatMul(x1, w1), MatMul(x2, w2))
		if bias != nil {
			out = AddBias(out, bias)
		}
		return applyActGraph(out, act)
	}
	if x1.Cols != w1.Rows || x2.Cols != w2.Rows || x1.Rows != x2.Rows || w1.Cols != w2.Cols {
		invariant.Failf("tensor: linear2 %dx%d@%dx%d + %dx%d@%dx%d",
			x1.Rows, x1.Cols, w1.Rows, w1.Cols, x2.Rows, x2.Cols, w2.Rows, w2.Cols)
	}
	out := c.uninit(x1.Rows, w1.Cols)
	var bd []float64
	if bias != nil {
		bd = bias.Data
	}
	gemm2BatchBiasAct(out.Data, x1.Data, w1.Data, x2.Data, w2.Data, bd,
		x1.Rows, x1.Cols, x2.Cols, w1.Cols, act)
	return out
}

// AddLayerNorm returns LayerNorm(x + y) — the Transformer's residual
// connection and the norm after it — as one fused op with no intermediate
// sum tensor; a nil y is the plain LayerNorm of x. Each row is normalised and
// then scaled by gain and shifted by bias (the nn.LayerNorm composition).
//
//mpgraph:noalloc
func (c *Ctx) AddLayerNorm(x, y, gain, bias *Tensor, eps float64) *Tensor {
	if c == nil {
		if y != nil {
			x = Add(x, y)
		}
		return AddBias(MulBias(NormalizeRows(x, eps), gain), bias)
	}
	if gain.Cols != x.Cols || bias.Cols != x.Cols {
		invariant.Failf("tensor: layernorm gain/bias width for %dx%d", x.Rows, x.Cols)
	}
	out := c.uninit(x.Rows, x.Cols)
	var yd []float64
	if y != nil {
		checkSameShape("addLayerNorm", x, y)
		yd = y.Data
	}
	addLayerNormRows(out.Data, x.Data, yd, gain.Data, bias.Data, x.Rows, x.Cols, eps)
	return out
}

// applyActGraph is the autograd (nil-ctx) epilogue matching applyAct.
func applyActGraph(t *Tensor, act Act) *Tensor {
	switch act {
	case ActReLU:
		return ReLU(t)
	case ActSigmoid:
		return Sigmoid(t)
	case ActTanh:
		return Tanh(t)
	default:
		return t
	}
}

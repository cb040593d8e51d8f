package nn

import (
	"math/rand"

	"mpgraph/internal/tensor"
)

// LSTM is a single-layer long short-term memory network, the backbone of the
// Delta-LSTM and Voyager baselines (Hochreiter & Schmidhuber 1997). Gates
// use separate weight matrices per gate, which keeps the autograd graph
// simple.
type LSTM struct {
	// Per-gate input and recurrent weights plus bias: i, f, g (cell), o.
	Wxi, Whi, Bi *tensor.Tensor
	Wxf, Whf, Bf *tensor.Tensor
	Wxg, Whg, Bg *tensor.Tensor
	Wxo, Who, Bo *tensor.Tensor
	Hidden       int
}

// NewLSTM builds an LSTM mapping in-dim inputs to a hidden-dim state.
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	mk := func(r, c int) *tensor.Tensor { return tensor.Randn(r, c, 0.2, rng).Param() }
	l := &LSTM{
		Wxi: mk(in, hidden), Whi: mk(hidden, hidden), Bi: tensor.Zeros(1, hidden).Param(),
		Wxf: mk(in, hidden), Whf: mk(hidden, hidden), Bf: tensor.Zeros(1, hidden).Param(),
		Wxg: mk(in, hidden), Whg: mk(hidden, hidden), Bg: tensor.Zeros(1, hidden).Param(),
		Wxo: mk(in, hidden), Who: mk(hidden, hidden), Bo: tensor.Zeros(1, hidden).Param(),
		Hidden: hidden,
	}
	// Forget-gate bias starts at 1, the standard trick for gradient flow.
	for i := range l.Bf.Data {
		l.Bf.Data[i] = 1
	}
	return l
}

// Forward consumes the sequence x [T x in] one row at a time and returns
// the final hidden state [1 x hidden].
func (l *LSTM) Forward(x *tensor.Tensor) *tensor.Tensor {
	return l.ForwardCtx(nil, x)
}

// ForwardCtx is Forward on the ctx fast path: one sequence is the blocks=1
// case of ForwardBatchCtx. A nil ctx runs the autograd composition.
//
//mpgraph:noalloc
func (l *LSTM) ForwardCtx(ctx *tensor.Ctx, x *tensor.Tensor) *tensor.Tensor {
	if ctx == nil {
		h := tensor.Zeros(1, l.Hidden)
		c := tensor.Zeros(1, l.Hidden)
		for t := 0; t < x.Rows; t++ {
			xt := tensor.SliceRows(x, t, t+1)
			gate := func(wx, wh, b *tensor.Tensor) *tensor.Tensor {
				return tensor.AddBias(tensor.Add(tensor.MatMul(xt, wx), tensor.MatMul(h, wh)), b)
			}
			i := tensor.Sigmoid(gate(l.Wxi, l.Whi, l.Bi))
			f := tensor.Sigmoid(gate(l.Wxf, l.Whf, l.Bf))
			g := tensor.Tanh(gate(l.Wxg, l.Whg, l.Bg))
			o := tensor.Sigmoid(gate(l.Wxo, l.Who, l.Bo))
			c = tensor.Add(tensor.Mul(f, c), tensor.Mul(i, g))
			h = tensor.Mul(o, tensor.Tanh(c))
		}
		return h
	}
	return l.ForwardBatchCtx(ctx, x, 1)
}

// ForwardBatchCtx consumes `blocks` stacked sequences step-synchronously:
// at each timestep the per-session rows are gathered into one [blocks x in]
// block so each gate is one fused input+recurrent GEMM against the state
// block with the nonlinearity in the epilogue, and the cell update is one
// in-place loop with a vectorized tanh. Returns the final hidden states
// [blocks x hidden].
//
//mpgraph:noalloc
func (l *LSTM) ForwardBatchCtx(ctx *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	t := x.Rows / blocks
	h := ctx.Zeros(blocks, l.Hidden)
	c := ctx.Zeros(blocks, l.Hidden)
	for step := 0; step < t; step++ {
		xt := ctx.GatherRowsStride(x, step, t, blocks)
		i := ctx.Linear2Act(xt, l.Wxi, h, l.Whi, l.Bi, tensor.ActSigmoid)
		f := ctx.Linear2Act(xt, l.Wxf, h, l.Whf, l.Bf, tensor.ActSigmoid)
		g := ctx.Linear2Act(xt, l.Wxg, h, l.Whg, l.Bg, tensor.ActTanh)
		o := ctx.Linear2Act(xt, l.Wxo, h, l.Who, l.Bo, tensor.ActSigmoid)
		for j := range c.Data {
			cv := f.Data[j]*c.Data[j] + i.Data[j]*g.Data[j]
			c.Data[j] = cv
			h.Data[j] = cv
		}
		tensor.ApplyActFast(h.Data, tensor.ActTanh) //mpgraph:allow noalloc -- in-place over the arena row; the cross-package naming rule keys on Ctx/Into suffixes
		for j := range h.Data {
			h.Data[j] *= o.Data[j]
		}
	}
	return h
}

// Params implements Module.
func (l *LSTM) Params() []*tensor.Tensor {
	return []*tensor.Tensor{
		l.Wxi, l.Whi, l.Bi,
		l.Wxf, l.Whf, l.Bf,
		l.Wxg, l.Whg, l.Bg,
		l.Wxo, l.Who, l.Bo,
	}
}

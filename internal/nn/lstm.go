package nn

import (
	"math/rand"

	"mpgraph/internal/invariant"
	"mpgraph/internal/tensor"
)

// LSTMOf is a single-layer long short-term memory network, the backbone of
// the Delta-LSTM and Voyager baselines (Hochreiter & Schmidhuber 1997). Gates
// use separate weight matrices per gate, which keeps the autograd graph
// simple.
type LSTMOf[T float32 | float64] struct {
	// Per-gate input and recurrent weights plus bias: i, f, g (cell), o.
	Wxi, Whi, Bi *tensor.Dense[T]
	Wxf, Whf, Bf *tensor.Dense[T]
	Wxg, Whg, Bg *tensor.Dense[T]
	Wxo, Who, Bo *tensor.Dense[T]
	Hidden       int
}

// LSTM is the float64 instantiation, F32LSTM the f32 inference mirror.
type (
	LSTM    = LSTMOf[float64]
	F32LSTM = LSTMOf[float32]
)

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

// Forward consumes the sequence x [T x in] one row at a time and returns
// the final hidden state [1 x hidden].
func (l *LSTMOf[T]) Forward(x *tensor.Dense[T]) *tensor.Dense[T] {
	return l.ForwardCtx(nil, x)
}

// ForwardCtx is Forward on the ctx fast path: one sequence is the blocks=1
// case of ForwardBatchCtx.
//
//mpgraph:noalloc
func (l *LSTMOf[T]) ForwardCtx(ctx *tensor.Ctx, x *tensor.Dense[T]) *tensor.Dense[T] {
	return l.ForwardBatchCtx(ctx, x, 1)
}

// lstmGraph is the autograd forward: one row at a time, every gate its own
// op so gradients flow through the plain graph.
func lstmGraph(l *LSTM, x *tensor.Tensor) *tensor.Tensor {
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

// ForwardBatchCtx consumes `blocks` stacked sequences step-synchronously and
// returns the final hidden states [blocks x hidden]. The input half of every
// gate, x@Wx (+ b), does not depend on the state, so it is four products over
// all blocks*T rows before the loop, on time-major rows so that a step's
// share of each is one [blocks x hidden] run. One sequence then runs all its
// steps in one kernel call where there is one (tensor.LSTMSteps); otherwise,
// and for a batch, a step adds h@Wh onto that run in place and applies the
// gate's activation. Per element both are the rounding sequence of the fused
// two-product gate (tensor.LinearAccum) and the cell update below, whichever
// kernels run them. A nil ctx runs the autograd composition (lstmGraph) over
// one sequence, which only the float64 LSTM has.
//
//mpgraph:noalloc
func (l *LSTMOf[T]) ForwardBatchCtx(ctx *tensor.Ctx, x *tensor.Dense[T], blocks int) *tensor.Dense[T] {
	if ctx == nil {
		l64, ok := any(l).(*LSTM)
		invariant.Check(ok, "nn: the f32 LSTM is inference-only: it requires a non-nil ctx")
		invariant.Check(blocks == 1, "nn: an LSTM on a nil ctx takes one sequence")
		return any(lstmGraph(l64, any(x).(*tensor.Tensor))).(*tensor.Dense[T])
	}
	t := x.Rows / blocks
	n := blocks * l.Hidden
	if blocks > 1 {
		x = tensor.TimeMajorBatch(ctx, x, blocks)
	}
	wx := [4]*tensor.Dense[T]{l.Wxi, l.Wxf, l.Wxo, l.Wxg}
	wh := [4]*tensor.Dense[T]{l.Whi, l.Whf, l.Who, l.Whg}
	bias := [4]*tensor.Dense[T]{l.Bi, l.Bf, l.Bo, l.Bg}
	acts := [4]tensor.Act{tensor.ActSigmoid, tensor.ActSigmoid, tensor.ActSigmoid, tensor.ActTanh}
	var pre, gate [4][]T
	for g := range pre {
		pre[g] = tensor.LinearAccum(ctx, nil, x, wx[g], bias[g])
	}
	h := tensor.ZerosCtx[T](ctx, blocks, l.Hidden)
	cell := tensor.ZerosCtx[T](ctx, blocks, l.Hidden)
	if blocks == 1 && tensor.LSTMSteps(ctx, h, cell, pre, wh, t) {
		return h
	}
	c := cell.Data
	for step := 0; step < t; step++ {
		for k := range pre {
			// Odd steps run the gates backwards: the Wh panel a step streams
			// last is the one the next step reads first, still in L1.
			g := k
			if step&1 == 1 {
				g = 3 - k
			}
			gate[g] = tensor.LinearAccum(ctx, pre[g][step*n:(step+1)*n], h, wh[g], bias[g])
			tensor.ApplyActFast(gate[g], acts[g])
		}
		i, f, o, g := gate[0], gate[1], gate[2], gate[3]
		for j := range c {
			cv := f[j]*c[j] + i[j]*g[j]
			c[j] = cv
			h.Data[j] = cv
		}
		tensor.ApplyActFast(h.Data, tensor.ActTanh)
		for j := range h.Data {
			h.Data[j] *= o[j]
		}
	}
	return h
}

// Params implements Module.
func (l *LSTMOf[T]) Params() []*tensor.Dense[T] {
	return []*tensor.Dense[T]{
		l.Wxi, l.Whi, l.Bi,
		l.Wxf, l.Whf, l.Bf,
		l.Wxg, l.Whg, l.Bg,
		l.Wxo, l.Who, l.Bo,
	}
}

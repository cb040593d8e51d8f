package tensor

import "mpgraph/internal/invariant"

// Graph-free fast-path ops, written once over the element type T. Every op
// takes the ctx first and dispatches on it: a nil ctx runs the exact autograd
// composition — float64 only, the reference the fast-path tests compare
// against; an f32 value on a nil ctx fails the invariant — and a non-nil ctx
// runs an arena-backed kernel that builds no graph and allocates nothing once
// the arena has warmed up. An op whose name an autograd op already holds
// carries a Ctx suffix (ZerosCtx, EmbeddingLookupCtx, ConcatColsCtx).
//
// There is one live-ctx kernel surface: the GEMM and activation ops run the
// panel kernels (gemm_batch.go) at however many rows they are handed, so one
// sequence is the one-block case of a stacked batch and computes the same
// bits alone as inside any batch. The dtype is chosen at the leaves — the
// arena (arenaOf) and the asm entry points (gemm_batch_amd64.go) — so a
// weight and an activation of different precisions do not type-check.
//
// Aliasing contract: fast-path results live in the arena until the next
// Reset, and in-place ops (SigmoidInPlace) may overwrite their input.
// Callers on the hot path treat op inputs as consumed.

// f32NilCtx is the invariant an f32 value on a nil ctx fails.
const f32NilCtx = "tensor: the f32 tier is inference-only: its ops require a non-nil ctx"

// graph returns t as the autograd tensor a nil-ctx op computes on. Only
// float64 takes part in autograd, so an f32 value here is a caller bug.
func graph[T float32 | float64](t *Dense[T]) *Tensor {
	g, ok := any(t).(*Tensor)
	if !ok {
		invariant.Fail(f32NilCtx)
	}
	return g
}

// ungraph hands an autograd result back at the caller's element type, which
// is float64 or graph would have failed.
func ungraph[T float32 | float64](t *Tensor) *Dense[T] { return any(t).(*Dense[T]) }

// ZerosCtx returns a zero rows x cols tensor (arena-backed when c is
// non-nil).
//
//mpgraph:noalloc
func ZerosCtx[T float32 | float64](c *Ctx, rows, cols int) *Dense[T] {
	if c == nil {
		return ungraph[T](Zeros(rows, cols))
	}
	return zeros[T](c, rows, cols)
}

// NarrowCtx converts a float64 tensor to the compute tier's element type on
// the arena — the hand-off from the f64 feature builders. It rounds every
// element to f32 on the f32 tier and is the identity at float64.
//
//mpgraph:noalloc
func NarrowCtx[T float32 | float64](c *Ctx, t *Tensor) *Dense[T] {
	if same, ok := any(t).(*Dense[T]); ok {
		return same
	}
	if c == nil {
		invariant.Fail(f32NilCtx)
	}
	out := uninit[T](c, t.Rows, t.Cols)
	for i, v := range t.Data {
		out.Data[i] = T(v)
	}
	return out
}

// WidenCtx is the exact (and rank-preserving) hand-off from the compute tier
// back to the float64 score consumers (screening, top-k decode): it widens
// an f32 tensor into the arena and is the identity at float64.
//
//mpgraph:noalloc
func WidenCtx[T float32 | float64](c *Ctx, t *Dense[T]) *Tensor {
	if same, ok := any(t).(*Tensor); ok {
		return same
	}
	if c == nil {
		invariant.Fail(f32NilCtx)
	}
	out := uninit[float64](c, t.Rows, t.Cols)
	for i, v := range t.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// SigmoidInPlace applies the logistic function. The fast path runs the
// vector kernel in place and returns its input; the nil path returns a fresh
// graph tensor.
//
//mpgraph:noalloc
func SigmoidInPlace[T float32 | float64](c *Ctx, a *Dense[T]) *Dense[T] {
	if c == nil {
		return ungraph[T](Sigmoid(graph(a)))
	}
	ApplyActFast(a.Data, ActSigmoid)
	return a
}

// ConcatColsCtx stacks tensors horizontally (same Rows) — the multi-head
// concat; heads come from an arena Ptrs slice.
//
//mpgraph:noalloc
func ConcatColsCtx[T float32 | float64](c *Ctx, ts []*Dense[T]) *Dense[T] {
	if c == nil {
		gs := make([]*Tensor, len(ts))
		for i, t := range ts {
			gs[i] = graph(t)
		}
		return ungraph[T](ConcatCols(gs...))
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
	out := uninit[T](c, rows, cols)
	colOff := 0
	for _, t := range ts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*cols+colOff:r*cols+colOff+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
		}
		colOff += t.Cols
	}
	return out
}

// ConcatCols2 is ConcatColsCtx for exactly two tensors, the arity the page
// baselines use; the pair lives on the caller's stack, where a slice literal
// would escape to the heap.
//
//mpgraph:noalloc
func ConcatCols2[T float32 | float64](c *Ctx, a, b *Dense[T]) *Dense[T] {
	pair := [2]*Dense[T]{a, b}
	return ConcatColsCtx(c, pair[:])
}

// EmbeddingLookupCtx gathers rows of table by ids.
//
//mpgraph:noalloc
func EmbeddingLookupCtx[T float32 | float64](c *Ctx, table *Dense[T], ids []int) *Dense[T] {
	if c == nil {
		return ungraph[T](EmbeddingLookup(graph(table), ids))
	}
	for _, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: embedding id %d out of [0,%d)", id, table.Rows)
		}
	}
	out := uninit[T](c, len(ids), table.Cols)
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
func LinearAct[T float32 | float64](c *Ctx, x, w, bias *Dense[T], act Act) *Dense[T] {
	if c == nil {
		out := MatMul(graph(x), graph(w))
		if bias != nil {
			out = AddBias(out, graph(bias))
		}
		return ungraph[T](applyActGraph(out, act))
	}
	if x.Cols != w.Rows {
		invariant.Failf("tensor: linear %dx%d @ %dx%d", x.Rows, x.Cols, w.Rows, w.Cols)
	}
	out := uninit[T](c, x.Rows, w.Cols)
	var bd []T
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != w.Cols {
			invariant.Failf("tensor: linear bias %dx%d for width %d", bias.Rows, bias.Cols, w.Cols)
		}
		bd = bias.Data
	}
	gemmBatchBiasAct(out.Data, x.Data, w.Data, bd, x.Rows, x.Cols, w.Cols, act)
	return out
}

// LinearAccum is the two-product gate sum x1@w1 + x2@w2 + bias, no
// activation, one product per call — so a caller can hoist the first product
// out of a recurrence. A nil acc opens the sum with x@w for all rows of x; a
// non-nil acc holds rows of an opened sum, as many as x has, gets x@w added in
// place and is returned. The bias is passed to both calls and enters once,
// where each kernel family's rounding order has it: the panel kernels seed
// the opening product with it, the scalar fallback adds it after the closing
// one. Live ctx only.
//
//mpgraph:noalloc
func LinearAccum[T float32 | float64](c *Ctx, acc []T, x, w, bias *Dense[T]) []T {
	if c == nil || bias.Rows != 1 || bias.Cols != w.Cols {
		invariant.Failf("tensor: linear accum bias %dx%d for width %d (nil ctx: %v)", bias.Rows, bias.Cols, w.Cols, c == nil)
	}
	biasLast := !batchKernelAvailable()
	if acc == nil {
		if biasLast {
			bias = nil
		}
		return LinearAct(c, x, w, bias, ActNone).Data
	}
	if x.Cols != w.Rows || len(acc) != x.Rows*w.Cols {
		invariant.Failf("tensor: linear accum %d += %dx%d @ %dx%d", len(acc), x.Rows, x.Cols, w.Rows, w.Cols)
	}
	gemmBatch(acc, x.Data, w.Data, x.Rows, x.Cols, w.Cols)
	if biasLast {
		for r := 0; r < len(acc); r += w.Cols {
			for j, bv := range bias.Data {
				acc[r+j] += bv
			}
		}
	}
	return acc
}

// AddLayerNorm returns LayerNorm(x + y) — the Transformer's residual
// connection and the norm after it — as one fused op with no intermediate
// sum tensor; a nil y is the plain LayerNorm of x. Each row is normalised and
// then scaled by gain and shifted by bias (the nn.LayerNorm composition).
//
//mpgraph:noalloc
func AddLayerNorm[T float32 | float64](c *Ctx, x, y, gain, bias *Dense[T], eps T) *Dense[T] {
	if c == nil {
		gx := graph(x)
		if y != nil {
			gx = Add(gx, graph(y))
		}
		return ungraph[T](AddBias(MulBias(NormalizeRows(gx, float64(eps)), graph(gain)), graph(bias)))
	}
	if gain.Cols != x.Cols || bias.Cols != x.Cols {
		invariant.Failf("tensor: layernorm gain/bias width for %dx%d", x.Rows, x.Cols)
	}
	out := uninit[T](c, x.Rows, x.Cols)
	var yd []T
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

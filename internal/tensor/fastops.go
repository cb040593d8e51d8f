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

// ConcatColsCtx stacks tensors horizontally (same Rows), each moved into
// its column window by one rowsInto pass; heads come from a PtrsFor
// slice. The multi-head attention writes its heads in place instead
// (AttentionBlocksInto); this is the page baselines' concat.
//
//mpgraph:noalloc
func ConcatColsCtx[T float32 | float64](c *Ctx, ts []*Dense[T]) *Dense[T] {
	if c == nil {
		gs, ok := any(ts).([]*Tensor)
		if !ok {
			invariant.Fail(f32NilCtx)
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
		rowsInto(out.Data[colOff:], t.Data, nil, nil, rows, t.Cols, cols, 0)
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

// ConcatRowsCtx stacks a's blocks over b's (same Cols), block by block: a
// and b hold `blocks` equal row blocks each, and block i of the result is
// a's block i over b's block i — the fusion input of a stacked batch of
// sequence pairs, one rowsInto pass per half-block.
//
//mpgraph:noalloc
func ConcatRowsCtx[T float32 | float64](c *Ctx, a, b *Dense[T], blocks int) *Dense[T] {
	if c == nil {
		oneBlock("concatRows", blocks)
		return ungraph[T](ConcatRows(graph(a), graph(b)))
	}
	if a.Cols != b.Cols || blocks <= 0 || a.Rows%blocks != 0 || b.Rows%blocks != 0 {
		invariant.Failf("tensor: concatRows %dx%d over %dx%d in %d blocks", a.Rows, a.Cols, b.Rows, b.Cols, blocks)
	}
	out := uninit[T](c, a.Rows+b.Rows, a.Cols)
	na, nb := len(a.Data)/blocks, len(b.Data)/blocks
	for blk := 0; blk < blocks; blk++ {
		o := out.Data[blk*(na+nb):]
		rowsInto(o, a.Data[blk*na:(blk+1)*na], nil, nil, a.Rows/blocks, a.Cols, a.Cols, 0)
		rowsInto(o[na:], b.Data[blk*nb:(blk+1)*nb], nil, nil, b.Rows/blocks, b.Cols, b.Cols, 0)
	}
	return out
}

// UninitCtx returns an arena rows x cols tensor whose elements are left as
// the last arena round wrote them: for an output every element of which the
// caller's ops write before anything reads it (the heads' concat). Live ctx
// only.
//
//mpgraph:noalloc
func UninitCtx[T float32 | float64](c *Ctx, rows, cols int) *Dense[T] {
	if c == nil {
		invariant.Fail("tensor: UninitCtx requires a live ctx")
	}
	return uninit[T](c, rows, cols)
}

// EmbeddingLookupCtx gathers rows of table by ids (one rowsInto pass).
//
//mpgraph:noalloc
func EmbeddingLookupCtx[T float32 | float64](c *Ctx, table *Dense[T], ids []int) *Dense[T] {
	if c == nil {
		return ungraph[T](EmbeddingLookup(graph(table), ids))
	}
	checkIDs(ids, table.Rows)
	out := uninit[T](c, len(ids), table.Cols)
	rowsInto(out.Data, table.Data, nil, ids, len(ids), table.Cols, table.Cols, 0)
	return out
}

// SigmoidWidenCtx is the f32 delta head's score hand-off: the float64
// widening of sigmoid(logits), in one pass. Sigmoid SATURATES: an overflowed
// f32 logit (e.g. an f16-poisoned weight widened to Inf) would squash to a
// perfectly finite probability and sail past the score screen. So when any
// logit is non-finite the logits are widened verbatim instead — the Inf/NaN
// reaches models.ScreenScores and latches Health() exactly like a float64
// blow-up would. Widening is exact, so either result is what the f32
// kernels produced. Live ctx only.
//
//mpgraph:noalloc
func SigmoidWidenCtx(c *Ctx, logits *F32Tensor) *Tensor {
	if c == nil {
		invariant.Fail(f32NilCtx)
	}
	out := uninit[float64](c, logits.Rows, logits.Cols)
	if sigmoidWiden(out.Data, logits.Data) {
		return out
	}
	for i, v := range logits.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// sigmoidWiden writes float64(sigmoid(x)) into out and reports whether every
// x was finite (x - x == 0); on false out is unspecified. The portable body
// screens first, then runs the scalar sigmoid in place on x and widens.
//
//mpgraph:noalloc
func sigmoidWiden(out []float64, x []float32) bool {
	if batchKernelAvailable() {
		return sigmoidWidenF32(out, x)
	}
	for _, v := range x {
		if v-v != 0 { // non-finite: Inf-Inf and NaN-NaN are both NaN
			return false
		}
	}
	applyAct(x, ActSigmoid)
	for i, v := range x {
		out[i] = float64(v)
	}
	return true
}

// FirstAbove returns the index of the first element of s that compares > v,
// or len(s) — the top-k scan's test against its current worst entry. A NaN
// compares false either side, so it is never above v and nothing is above a
// NaN v. Where AVX-512F is present the kernel compares four zmm a step.
//
//mpgraph:noalloc
func FirstAbove[T float32 | float64](s []T, v T) int {
	if batchKernelAvailable() {
		return firstAbove(s, v)
	}
	for i, x := range s {
		if x > v {
			return i
		}
	}
	return len(s)
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

// LSTMSteps runs every step of an LSTM's recurrence over one sequence in one
// kernel call and reports true, or reports false, touching nothing, where no
// kernel holds the bits of the caller's step loop (nn.LSTMOf.ForwardBatchCtx):
// off AVX-512F, and at GOAMD64=v3, where the compiler may contract that loop's
// f·c + i·g into an FMA. Gates are in the order i, f, o, g: pre[g] is
// x·Wx_g + b_g over the steps rows of x (LinearAccum with a nil accumulator),
// wh[g] is Wh_g. h and cell are the [1 x hidden] state, zero on entry; on
// true h holds the final hidden state and cell the final cell state.
//
//mpgraph:noalloc
func LSTMSteps[T float32 | float64](c *Ctx, h, cell *Dense[T], pre [4][]T, wh [4]*Dense[T], steps int) bool {
	if !goUnfused || !batchKernelAvailable() {
		return false
	}
	if h.Rows != 1 {
		invariant.Failf("tensor: LSTMSteps runs one sequence, not %d", h.Rows)
	}
	hs := ZerosCtx[T](c, 1, h.Cols)
	lstmSteps(h.Data, hs.Data, cell.Data, pre, [4][]T{wh[0].Data, wh[1].Data, wh[2].Data, wh[3].Data}, steps)
	return true
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

// Package tensor implements the dense matrix type and the float64 reverse-mode
// automatic differentiation the neural-network stack is built on. It is a
// deliberate stdlib-only substitute for the PyTorch/TensorFlow substrate the
// paper's models assume (DESIGN.md §2): every op used by AMMA, the LSTM and
// attention baselines — matmul, softmax, attention fusion, embedding lookup,
// the losses — is implemented here with a hand-written backward pass and
// verified by numerical gradient checking in the tests.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"mpgraph/internal/invariant"
)

// gradDisabled gates graph construction (inverted so the zero value means
// "grad on"). Inference hot paths (prefetchers running inside the
// simulator, possibly many simulations in parallel) disable it to avoid
// building tapes; the flag is atomic so concurrent inference goroutines may
// toggle it idempotently.
var gradDisabled atomic.Bool

// SetGradEnabled toggles autograd graph construction and returns the
// previous value. Each individual training or inference pass is
// single-goroutine; concurrent passes must agree on the mode (the
// experiment runner trains everything first, then runs inference-only
// simulations in parallel).
func SetGradEnabled(v bool) bool {
	return !gradDisabled.Swap(!v)
}

// Dense is a 2-D row-major matrix over one of the two float element types.
// (All models in this repository operate on [sequence x features] or
// [features x features] matrices; higher ranks are unnecessary.) The
// graph-free inference ops (fastops.go) and everything built on them are
// written once over T; the autograd ops (ops.go) and the graph fields below
// are only ever exercised at float64, the training precision.
type Dense[T float32 | float64] struct {
	Rows, Cols int
	Data       []T
	// Grad accumulates d(loss)/d(this); allocated on demand.
	Grad []T

	requiresGrad bool
	// mark is Backward's visited flag, set and cleared within one traversal.
	mark bool
	// node is the record of the autograd op that computed this tensor, nil
	// for a parameter, an input, and any result that needs no gradient.
	node *node[T]
	// tape, when set, is the training tape (tape.go) results computed from
	// this tensor live on: a parameter carries its trainer's, a result or an
	// input the one its own Data came from.
	tape *TapeOf[T]
}

// node is an op result's place in the graph, read by backwardOp: the op, its
// operands (srcs views src, or for a concat is a copy of its operand list)
// and the op's payload in arg, f, ids and saved, each op's use named at its
// code. It lives apart from the tensor so that the arena headers of
// inference, which never join a graph, stay small.
type node[T float32 | float64] struct {
	op    opCode
	src   [2]*Dense[T]
	srcs  []*Dense[T]
	arg   int
	f     float64
	ids   []int
	saved []T
}

// record is a result and its node, allocated together.
type record[T float32 | float64] struct {
	t Dense[T]
	n node[T]
}

// Tensor is the float64 matrix: training, autograd and the f64 inference
// tier.
type Tensor = Dense[float64]

// F32Tensor is the single-precision inference matrix (DESIGN.md §8). The
// f32 tier exists only on the live-ctx inference path: every op handed an
// F32Tensor on a nil ctx fails the invariant.
type F32Tensor = Dense[float32]

// New creates a Rows x Cols tensor backed by data (taken over, not copied).
func New(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		invariant.Failf("tensor: data length %d != %dx%d", len(data), rows, cols)
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Zeros creates a zero-filled tensor.
func Zeros(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Randn creates a tensor of N(0, scale²) entries.
func Randn(rows, cols int, scale float64, rng *rand.Rand) *Tensor {
	t := Zeros(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	return t
}

// NewF32Tensor returns a zeroed heap-backed rows x cols F32Tensor (model
// parameters at conversion time; the hot path uses arena-backed ctx ops).
func NewF32Tensor(rows, cols int) *F32Tensor {
	return &F32Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NarrowF32 converts a float64 tensor to f32 by rounding every element —
// the weight-narrowing step of the mixed-precision ladder. Heap-allocating;
// used once per parameter at model conversion, never per inference.
func NarrowF32(t *Tensor) *F32Tensor {
	out := NewF32Tensor(t.Rows, t.Cols)
	for i, v := range t.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Param marks t as a trainable parameter (gradients accumulate).
func (t *Dense[T]) Param() *Dense[T] {
	t.requiresGrad = true
	return t
}

// RequiresGrad reports whether t participates in gradients.
func (t *Dense[T]) RequiresGrad() bool { return t.requiresGrad }

// At returns element (r,c).
//
//mpgraph:noalloc
func (t *Dense[T]) At(r, c int) T { return t.Data[r*t.Cols+c] }

// Set assigns element (r,c).
func (t *Dense[T]) Set(r, c int, v T) { t.Data[r*t.Cols+c] = v }

// Row returns row r as a shared sub-slice.
//
//mpgraph:noalloc
func (t *Dense[T]) Row(r int) []T { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Clone returns a detached deep copy (no graph edges).
func (t *Dense[T]) Clone() *Dense[T] {
	d := make([]T, len(t.Data))
	copy(d, t.Data)
	return &Dense[T]{Rows: t.Rows, Cols: t.Cols, Data: d}
}

// ensureGrad allocates the gradient buffer: from the tape for a result on
// one, whose gradient dies with the step, and from the heap for everything
// else — a parameter's gradient has to survive the tape's Reset.
func (t *Dense[T]) ensureGrad() {
	if t.Grad != nil {
		return
	}
	if t.tape != nil && t.node != nil {
		t.Grad = t.tape.data.take(len(t.Data))
		return
	}
	t.Grad = make([]T, len(t.Data))
}

// ZeroGrad clears accumulated gradients.
func (t *Dense[T]) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// newResult returns the rows x cols result of op over a and b (b is nil for
// a unary op). Result and node come from the tape of the first operand that
// is on one (a taped parameter requires grad, so such a result always joins
// the graph), and from the heap otherwise. The node is attached only when the
// result requires grad; the op sets its payload under the same test.
func newResult(op opCode, rows, cols int, a, b *Tensor) *Tensor {
	if gradDisabled.Load() {
		return Zeros(rows, cols)
	}
	tp := a.tape
	if tp == nil && b != nil {
		tp = b.tape
	}
	out, n := resultOn(tp, rows, cols)
	out.requiresGrad = a.requiresGrad || b != nil && b.requiresGrad
	if out.requiresGrad {
		n.op = op
		n.src = [2]*Tensor{a, b}
		n.srcs = n.src[:1]
		if b != nil {
			n.srcs = n.src[:2]
		}
		out.node = n
	}
	return out
}

// newResultN is newResult for an op over any number of operands (the
// concats). The node keeps its own copy of the operand list, so a caller may
// reuse ts.
func newResultN(op opCode, rows, cols int, ts []*Tensor) *Tensor {
	if gradDisabled.Load() {
		return Zeros(rows, cols)
	}
	var tp *Tape
	grad := false
	for _, t := range ts {
		if tp == nil {
			tp = t.tape
		}
		grad = grad || t.requiresGrad
	}
	out, n := resultOn(tp, rows, cols)
	out.requiresGrad = grad
	if grad {
		n.op = op
		if tp != nil {
			n.srcs = tp.ptrs.take(len(ts))
		} else {
			n.srcs = make([]*Tensor, len(ts))
		}
		copy(n.srcs, ts)
		out.node = n
	}
	return out
}

// resultOn allocates a zeroed rows x cols result and a blank node for it, on
// tp or on the heap when tp is nil.
func resultOn(tp *Tape, rows, cols int) (*Tensor, *node[float64]) {
	var r *record[float64]
	if tp != nil {
		r = tp.records.take()
		r.t.Data = tp.data.take(rows * cols)
		r.t.tape = tp
	} else {
		r = &record[float64]{t: Tensor{Data: make([]float64, rows*cols)}}
	}
	r.t.Rows, r.t.Cols = rows, cols
	return &r.t, &r.n
}

// scratch returns n zeroed float64s that live as long as t's node: tape
// memory when t is on a tape, heap memory otherwise.
func scratch(t *Tensor, n int) []float64 {
	if t.tape != nil {
		return t.tape.data.take(n)
	}
	return make([]float64, n)
}

// Backward runs reverse-mode autodiff from t, which must be 1x1 (a scalar
// loss). Gradients accumulate into every reachable tensor with
// requiresGrad.
func (t *Dense[T]) Backward() error {
	if t.Rows != 1 || t.Cols != 1 {
		return fmt.Errorf("tensor: Backward needs a scalar, got %dx%d", t.Rows, t.Cols)
	}
	g, ok := any(t).(*Tensor)
	if !ok || !t.requiresGrad {
		return fmt.Errorf("tensor: Backward on a tensor with no graph")
	}
	backprop(g)
	return nil
}

// backprop is Backward on a float64 graph, the only kind there is. The
// topological order comes from an iterative DFS. A node is visited once: the
// mark on it says so without hashing, and is cleared before any op's
// backward runs, so a panicking one leaves no mark behind. On a tape the
// stack and the order reuse the last step's capacity.
func backprop(t *Tensor) {
	var stack []frame[float64]
	var order []*Tensor
	if t.tape != nil {
		stack, order = t.tape.stack[:0], t.tape.order[:0]
	}
	stack = append(stack, frame[float64]{n: t})
	t.mark = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.n.node != nil && f.next < len(f.n.node.srcs) {
			p := f.n.node.srcs[f.next]
			f.next++
			if p.requiresGrad && !p.mark {
				p.mark = true
				stack = append(stack, frame[float64]{n: p})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	for _, n := range order {
		n.mark = false
	}
	if t.tape != nil {
		t.tape.stack, t.tape.order = stack, order
	}
	t.ensureGrad()
	t.Grad[0] = 1
	// order is already reverse-topological leaves-first; walk from the end
	// (root) backwards.
	for i := len(order) - 1; i >= 0; i-- {
		backwardOp(order[i])
	}
}

// Detach returns a view sharing Data but cut from the graph.
func (t *Dense[T]) Detach() *Dense[T] {
	return &Dense[T]{Rows: t.Rows, Cols: t.Cols, Data: t.Data}
}

func (t *Dense[T]) String() string {
	return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols)
}

// MaxAbs returns the largest absolute entry (used in tests and quantization).
func (t *Dense[T]) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

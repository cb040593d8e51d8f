package tensor

import "mpgraph/internal/invariant"

// This file implements the training tape (DESIGN.md §8): what the Ctx arena
// is to inference, for one trainer's autograd steps. A train step builds a
// graph of a few hundred nodes, each with a Data and a Grad slice, and drops
// all of it after the optimizer update. A tape holds the whole step graph
// and rewinds once per step instead: the node records themselves, their Data
// and Grad, each op's payload (the ids an embedding lookup gathered, the
// targets a loss compared against, the row statistics a normalisation
// saved), the operand lists of the concats, and the step's inputs. From the
// second step of a fixed-shape loop a step allocates nothing.
//
// There is no global and no goroutine-local state: NewTape marks a model's
// parameters as owned by the tape, newResult puts a result on the tape of
// its first operand that has one, and so every result computed from those
// parameters lands on their tape without an op changing its signature. A
// forward's inputs find it the same way, through the weight they feed
// (IntsFor, ZerosFor, PtrsFor). What stays on the heap: parameter Data,
// parameter Grad (it outlives the step — Adam reads it after Backward, and
// ZeroGrad keeps the slice for the next one) and the optimizer's moments. A
// tensor with no tape anywhere among its ancestors — grad checks, nil-ctx
// oracle forwards, evaluation — is heap-allocated, through the same op
// records and the same backward switch.
//
// Like a Ctx, a tape is single-goroutine by construction: one trainer owns
// it. parallelRows workers never take from it — they write into a result the
// op allocated before fanning out.

// TapeOf is the step graph's allocator: results and their nodes on a chunked
// slab, and their floats, ints and operand lists on bump slabs with the arena's
// growth rule — until Reset has seen a whole step's demand a take the buffer
// cannot serve is a plain allocation (a slice already handed out never
// moves), Reset grows the buffer to the step's total, and from the second
// step of a fixed-shape loop take allocates nothing. It also keeps the
// traversal scratch of Backward.
type TapeOf[T float32 | float64] struct {
	data    slab[T]
	ints    slab[int]
	ptrs    slab[*Dense[T]]
	records recordSlab[T]

	params []*Dense[T]

	// Backward's DFS stack and topological order, kept so a step's traversal
	// reuses the last step's capacity.
	stack []frame[T]
	order []*Dense[T]
}

// Tape is the float64 tape; training exists at no other precision.
type Tape = TapeOf[float64]

// frame is one level of Backward's iterative DFS.
type frame[T float32 | float64] struct {
	n    *Dense[T]
	next int
}

// recordChunk is the number of records a recordSlab chunk holds.
const recordChunk = 256

// recordSlab hands out result records from fixed-size chunks. It grows by
// adding a chunk, so a record — which later nodes point at — never moves.
type recordSlab[T float32 | float64] struct {
	chunks [][]record[T]
	// chunk and off locate the next free record.
	chunk, off int
}

// take returns a zeroed record.
func (s *recordSlab[T]) take() *record[T] {
	if s.chunk == len(s.chunks) {
		s.chunks = append(s.chunks, make([]record[T], recordChunk))
	}
	r := &s.chunks[s.chunk][s.off]
	if s.off++; s.off == recordChunk {
		s.chunk, s.off = s.chunk+1, 0
	}
	return r
}

// reset zeroes every record handed out since the last reset, so no result of
// the finished step holds a pointer into the next, and rewinds.
func (s *recordSlab[T]) reset() {
	for i := 0; i < s.chunk; i++ {
		clear(s.chunks[i])
	}
	if s.chunk < len(s.chunks) {
		clear(s.chunks[s.chunk][:s.off])
	}
	s.chunk, s.off = 0, 0
}

// NewTape returns an empty tape owning params: until Release, every result
// computed from them draws its node, Data and Grad from the tape. A
// parameter belongs to at most one tape — two trainers on one model would
// interleave their steps' gradients — so a second owner fails the invariant.
func NewTape(params []*Tensor) *Tape {
	tp := &Tape{params: params}
	for _, p := range params {
		if p.tape != nil {
			invariant.Fail("tensor: parameter is already on a tape (two trainers on one model?)")
		}
		p.tape = tp
	}
	return tp
}

// Release hands the parameters back: autograd over them is heap-allocated
// again and the tape, once its owner drops it, is garbage. Trainers defer it,
// so an error or a panic mid-step does not leave a model pinned to a dead
// tape.
func (tp *TapeOf[T]) Release() {
	for _, p := range tp.params {
		p.tape = nil
	}
	tp.params = nil
}

// Reset rewinds the tape: every node and slice it handed out is invalidated
// (the slabs zero on the way out, so nothing of the finished step is
// readable from the next). Call it once per step, after the optimizer has
// consumed the parameter gradients and they have been zeroed.
func (tp *TapeOf[T]) Reset() {
	tp.data.reset()
	tp.ints.reset()
	tp.ptrs.reset()
	tp.records.reset()
}

// IntsFor returns a zeroed []int of length n for an input of a forward over
// w (token ids for the table w): the arena's on a live ctx; on a nil ctx the
// tape's w is on, or the heap's when it is on none.
//
//mpgraph:noalloc
func IntsFor[T float32 | float64](c *Ctx, w *Dense[T], n int) []int {
	if c == nil {
		if w.tape != nil {
			return w.tape.ints.take(n)
		}
		return make([]int, n)
	}
	return c.ints.take(n)
}

// ZerosFor is ZerosCtx for a float64 input of a forward over w: on a nil ctx
// the tensor is a leaf on w's tape (the heap when w is on none), so a
// training step's inputs are tape memory like its results.
//
//mpgraph:noalloc
func ZerosFor(c *Ctx, w *Tensor, rows, cols int) *Tensor {
	if c == nil {
		if w.tape == nil || gradDisabled.Load() {
			return Zeros(rows, cols)
		}
		out, _ := resultOn(w.tape, rows, cols)
		return out
	}
	return zeros[float64](c, rows, cols)
}

// PtrsFor returns a zeroed []*Dense[T] of length n for an operand list of a
// forward over w: the arena's on a live ctx; on a nil ctx the tape's w is on,
// or the heap's when it is on none.
//
//mpgraph:noalloc
func PtrsFor[T float32 | float64](c *Ctx, w *Dense[T], n int) []*Dense[T] {
	if c == nil {
		if w.tape != nil {
			return w.tape.ptrs.take(n)
		}
		return make([]*Dense[T], n)
	}
	return arenaOf[T](c).ptrs.take(n)
}

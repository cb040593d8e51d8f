package tensor

import "mpgraph/internal/invariant"

// This file implements the training tape (DESIGN.md §8): what the Ctx arena
// is to inference, for one trainer's autograd steps. A train step builds a
// graph of a few hundred results, each with a Data and a Grad slice, and drops
// all of it after the optimizer update; on the heap that is ~0.5 MB of
// zeroed float64 per step for the collector to chase. A tape hands those
// slices out of a slab it rewinds once per step instead.
//
// There is no global and no goroutine-local state: NewTape marks a model's
// parameters as owned by the tape, newResult gives a result the tape of its
// first parent that has one, and so every result computed from those
// parameters lands on their tape without an op changing its signature. What
// stays on the heap: parameter Data, parameter Grad (it outlives the step —
// Adam reads it after Backward, and ZeroGrad keeps the slice for the next
// one) and the optimizer's moments; node headers, parent slices and backward
// closures (small, and the collector frees them without a scan of float
// data). A tensor with no tape anywhere among its ancestors — grad checks,
// nil-ctx oracle forwards, evaluation — allocates exactly as it did before
// there was a tape.
//
// Like a Ctx, a tape is single-goroutine by construction: one trainer owns
// it. parallelRows workers never take from it — they write into a result the
// op allocated before fanning out.

// TapeOf is a bump allocator for the Data and Grad slices of autograd results
// — the arena's slab, so the same growth rule: until Reset has seen a whole
// step's demand a take the buffer cannot serve is a plain allocation (a slice
// already handed out never moves), Reset grows the buffer to the step's
// total, and from the second step of a fixed-shape loop take allocates
// nothing — plus the traversal scratch of Backward.
type TapeOf[T float32 | float64] struct {
	data slab[T]

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

// NewTape returns an empty tape owning params: until Release, every result
// computed from them draws its Data and Grad from the tape. A parameter
// belongs to at most one tape — two trainers on one model would interleave
// their steps' gradients — so a second owner fails the invariant.
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

// Reset rewinds the tape: every slice it handed out is invalidated (the slab
// zeroes on the way out, so nothing of the finished step is readable from the
// next). Call it once per step, after the optimizer has consumed the
// parameter gradients and they have been zeroed.
func (tp *TapeOf[T]) Reset() { tp.data.reset() }

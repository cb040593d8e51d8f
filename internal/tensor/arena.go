package tensor

// This file implements the inference scratch arena (DESIGN.md §8). Steady-
// state prefetcher inference runs the same model shapes every Operate call;
// the arena turns that into zero heap allocations per call: every tensor
// header, data slice, token buffer and pointer slice comes from a bump
// allocator that is rewound with Reset() between forwards.
//
// A Ctx is single-goroutine by construction — each prefetcher instance owns
// one — so no locking is needed, and the parallel experiment scheduler can
// run many simulations concurrently with one arena each.

// slab is a typed bump allocator. take hands out zeroed sub-slices of one
// backing buffer; when the buffer is exhausted it falls back to plain
// allocation and records the high-water mark so the next reset grows the
// buffer to cover it. After the first few calls of a fixed-shape workload
// the buffer has reached steady state and take never allocates again.
type slab[T any] struct {
	buf []T
	off int
	// need is the total requested since the last reset (the high-water
	// mark the buffer grows to).
	need int
}

// take returns a zeroed slice of n elements, capacity-clamped so appends
// cannot silently bleed into a neighbouring allocation.
//
//mpgraph:noalloc
func (s *slab[T]) take(n int) []T {
	s.need += n
	if s.off+n <= len(s.buf) {
		out := s.buf[s.off : s.off+n : s.off+n]
		s.off = s.off + n
		clear(out)
		return out
	}
	return make([]T, n) //mpgraph:allow noalloc -- growth fallback; steady state never reaches it
}

// takeUninit is take without the zeroing pass, for callers that overwrite
// every element before reading (fused kernels, concats, lookups). The
// contents are whatever the previous arena round left behind.
//
//mpgraph:noalloc
func (s *slab[T]) takeUninit(n int) []T {
	s.need += n
	if s.off+n <= len(s.buf) {
		out := s.buf[s.off : s.off+n : s.off+n]
		s.off = s.off + n
		return out
	}
	return make([]T, n) //mpgraph:allow noalloc -- growth fallback; steady state never reaches it
}

// reset rewinds the slab, growing the backing buffer to the high-water mark
// of the round just finished so the next round allocates nothing.
//
//mpgraph:noalloc
func (s *slab[T]) reset() {
	if s.need > len(s.buf) {
		s.buf = make([]T, s.need) //mpgraph:allow noalloc -- one-shot growth to the high-water mark
	}
	s.off = 0
	s.need = 0
}

// arena is one float tier's share of a Ctx: element data, tensor headers and
// pointer slices, each on its own slab.
type arena[T float32 | float64] struct {
	data slab[T]
	hdrs slab[Dense[T]]
	ptrs slab[*Dense[T]]
}

//mpgraph:noalloc
func (a *arena[T]) reset() {
	a.data.reset()
	a.hdrs.reset()
	a.ptrs.reset()
}

// header allocates a tensor header over data. The slot is not cleared: shape
// and data are assigned here and nothing ever writes an arena header's graph
// fields, so they are still the zeros the slab was made with
// (TestArenaHeadersCarryNoGraph pins that). Clearing the 112-byte slot costs
// 5-13% on the ~110-200 ns single-block LayerNorm rows of the ledger.
//
//mpgraph:noalloc
func (a *arena[T]) header(rows, cols int, data []T) *Dense[T] {
	t := &a.hdrs.takeUninit(1)[0]
	t.Rows = rows
	t.Cols = cols
	t.Data = data
	return t
}

// Ctx is an inference execution context: a scratch arena plus the graph-free
// fast-path ops defined in fastops.go. The nil *Ctx is valid and means "no
// fast path": every op handed a nil ctx falls back to the package autograd
// op (float64 only — the f32 tier is inference-only), so the autograd
// reference and the fast path share their layer code.
//
// Tensors returned by ctx ops are arena-backed: their Data is only valid
// until the next Reset, they never carry graph edges, and they must not be
// stored in model state or passed to Backward.
type Ctx struct {
	f64  arena[float64]
	f32  arena[float32]
	u16  slab[uint16]
	ints slab[int]
}

// NewCtx returns an empty inference context. Buffers are grown on demand
// during the first forwards and reach a fixed point once every shape has
// been seen.
func NewCtx() *Ctx { return &Ctx{} }

// Reset rewinds the arena. All tensors previously returned by this ctx are
// invalidated. Safe on a nil receiver (no-op) so call sites can
// unconditionally `defer ctx.Reset()`.
//
//mpgraph:noalloc
func (c *Ctx) Reset() {
	if c == nil {
		return
	}
	c.f64.reset()
	c.f32.reset()
	c.u16.reset()
	c.ints.reset()
}

// arenaOf returns c's arena for element type T — where a generic op's
// scratch learns its dtype.
//
//mpgraph:noalloc
func arenaOf[T float32 | float64](c *Ctx) *arena[T] {
	if a, ok := any(&c.f32).(*arena[T]); ok {
		return a
	}
	return any(&c.f64).(*arena[T])
}

// zeros allocates an arena-backed rows x cols tensor (data zeroed).
//
//mpgraph:noalloc
func zeros[T float32 | float64](c *Ctx, rows, cols int) *Dense[T] {
	a := arenaOf[T](c)
	return a.header(rows, cols, a.data.take(rows*cols))
}

// uninit allocates an arena-backed rows x cols tensor without zeroing its
// data. Only for ops that overwrite every element before returning —
// anything else would leak values across Reset rounds.
//
//mpgraph:noalloc
func uninit[T float32 | float64](c *Ctx, rows, cols int) *Dense[T] {
	a := arenaOf[T](c)
	return a.header(rows, cols, a.data.takeUninit(rows*cols))
}

// view allocates an arena-backed tensor header over existing data.
//
//mpgraph:noalloc
func view[T float32 | float64](c *Ctx, rows, cols int, data []T) *Dense[T] {
	return arenaOf[T](c).header(rows, cols, data)
}

// Floats returns a zeroed arena-backed []float64 of length n.
//
//mpgraph:noalloc
func (c *Ctx) Floats(n int) []float64 {
	if c == nil {
		return make([]float64, n)
	}
	return c.f64.data.take(n)
}

// Ints returns a zeroed arena-backed []int of length n (token buffers).
//
//mpgraph:noalloc
func (c *Ctx) Ints(n int) []int {
	if c == nil {
		return make([]int, n)
	}
	return c.ints.take(n)
}

// Ptrs returns a zeroed arena-backed []*Dense[T] of length n.
//
//mpgraph:noalloc
func Ptrs[T float32 | float64](c *Ctx, n int) []*Dense[T] {
	if c == nil {
		return make([]*Dense[T], n)
	}
	return arenaOf[T](c).ptrs.take(n)
}

// Float32s returns a zeroed arena-backed []float32 of length n (f32 score
// rows and activation scratch on the mixed-precision tier).
//
//mpgraph:noalloc
func (c *Ctx) Float32s(n int) []float32 {
	if c == nil {
		return make([]float32, n)
	}
	return c.f32.data.take(n)
}

// Halfs returns an uninitialised arena-backed []uint16 of length n (binary16
// staging buffers — every caller overwrites the full buffer before reading).
//
//mpgraph:noalloc
func (c *Ctx) Halfs(n int) []uint16 {
	if c == nil {
		return make([]uint16, n)
	}
	return c.u16.takeUninit(n)
}

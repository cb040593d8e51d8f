package tensor

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
)

// gemmParallelThreshold is the flop count above which GEMM fans out across
// goroutines; small model matrices stay single-threaded to avoid overhead.
const gemmParallelThreshold = 1 << 18

// maddRow computes orow += av * brow, 4-way unrolled. The explicit slicing
// lets the compiler drop per-element bounds checks; the unroll roughly
// halves loop overhead on the madd-dominated inference kernels.
//
//mpgraph:noalloc
func maddRow[T float32 | float64](orow, brow []T, av T) {
	n := len(brow)
	orow = orow[:n]
	if maddRowFast(orow, brow, av) {
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		orow[j] += av * brow[j]
		orow[j+1] += av * brow[j+1]
		orow[j+2] += av * brow[j+2]
		orow[j+3] += av * brow[j+3]
	}
	for ; j < n; j++ {
		orow[j] += av * brow[j]
	}
}

// maddRows4 computes orow += a0·b0 + a1·b1 + a2·b2 + a3·b3 in one pass,
// loading and storing each orow element once for four accumulated rows
// instead of four times — the madd kernels are store-bound, so this
// register blocking is the main single-thread GEMM win.
//
//mpgraph:noalloc
func maddRows4[T float32 | float64](orow, b0, b1, b2, b3 []T, a0, a1, a2, a3 T) {
	n := len(orow)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	if maddRows4Fast(orow, b0, b1, b2, b3, a0, a1, a2, a3) {
		return
	}
	for j := 0; j < n; j++ {
		orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// maddPanel computes orow += arow @ b for one output row, blocking the
// shared dimension four rows of b at a time (remainder via maddRow). The
// all-zero block skip keeps one-hot and ReLU-sparse inputs cheap.
//
//mpgraph:noalloc
func maddPanel[T float32 | float64](orow, arow, b []T, n int) {
	k := len(arow)
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		maddRows4(orow,
			b[p*n:(p+1)*n], b[(p+1)*n:(p+2)*n],
			b[(p+2)*n:(p+3)*n], b[(p+3)*n:(p+4)*n],
			a0, a1, a2, a3)
	}
	for ; p < k; p++ {
		if av := arow[p]; av != 0 {
			maddRow(orow, b[p*n:(p+1)*n], av)
		}
	}
}

// dotRows returns the dot product of two equal-length rows, 4-way unrolled
// with independent partial sums so the multiply-add chains pipeline.
//
//mpgraph:noalloc
func dotRows(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= n; j += 4 {
		s0 += a[j] * b[j]
		s1 += a[j+1] * b[j+1]
		s2 += a[j+2] * b[j+2]
		s3 += a[j+3] * b[j+3]
	}
	s := s0 + s1 + s2 + s3
	for ; j < n; j++ {
		s += a[j] * b[j]
	}
	return s
}

// gemm computes out += a@b with a [m x k] row-major, b [k x n] row-major.
// out must be zeroed (callers allocate fresh) or hold a partial sum that the
// product should accumulate into (gradient accumulation relies on +=).
// The serial case calls gemmRows directly: building the parallelRows
// closure heap-allocates (it escapes into goroutines), which would break
// the zero-allocation inference path.
//
//mpgraph:noalloc
func gemm[T float32 | float64](out, a, b []T, m, k, n int) {
	if !shouldParallel(m, m*k*n) {
		gemmRows(out, a, b, k, n, 0, m)
		return
	}
	parallelRows(func(r0, r1 int) { gemmRows(out, a, b, k, n, r0, r1) }, m, m*k*n) //mpgraph:allow noalloc -- training-size fan-out; inference stays below the threshold
}

//mpgraph:noalloc
func gemmRows[T float32 | float64](out, a, b []T, k, n, r0, r1 int) {
	for i := r0; i < r1; i++ {
		maddPanel(out[i*n:(i+1)*n], a[i*k:(i+1)*k], b, n)
	}
}

// dotRows4 returns arow's dot product with four b rows in one pass, so
// arow is streamed once per four output columns instead of once each.
//
//mpgraph:noalloc
func dotRows4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := 0; j < n; j++ {
		av := a[j]
		s0 += av * b0[j]
		s1 += av * b1[j]
		s2 += av * b2[j]
		s3 += av * b3[j]
	}
	return
}

// dotPanel computes orow[j] = [orow[j] +] dot(arow, b-row j)·s for all n
// output columns, blocked four columns at a time. acc selects accumulate
// (the gemm += contract) versus overwrite (fused kernels on uninitialised
// arena buffers).
//
//mpgraph:noalloc
func dotPanel(orow, arow, b []float64, k, n int, s float64, acc bool) {
	j := 0
	for ; j+4 <= n; j += 4 {
		s0, s1, s2, s3 := dotRows4(arow,
			b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k],
			b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k])
		if acc {
			orow[j] += s0 * s
			orow[j+1] += s1 * s
			orow[j+2] += s2 * s
			orow[j+3] += s3 * s
		} else {
			orow[j] = s0 * s
			orow[j+1] = s1 * s
			orow[j+2] = s2 * s
			orow[j+3] = s3 * s
		}
	}
	for ; j < n; j++ {
		d := dotRows(arow, b[j*k:(j+1)*k]) * s
		if acc {
			orow[j] += d
		} else {
			orow[j] = d
		}
	}
}

// gemmNT computes out += a@b^T with a [m x k], b [n x k] (so b^T is [k x n]).
func gemmNT(out, a, b []float64, m, k, n int) {
	if !shouldParallel(m, m*k*n) {
		gemmNTRows(out, a, b, k, n, 0, m)
		return
	}
	parallelRows(func(r0, r1 int) { gemmNTRows(out, a, b, k, n, r0, r1) }, m, m*k*n)
}

func gemmNTRows(out, a, b []float64, k, n, r0, r1 int) {
	for i := r0; i < r1; i++ {
		dotPanel(out[i*n:(i+1)*n], a[i*k:(i+1)*k], b, k, n, 1, true)
	}
}

// gemmTN computes out += a^T@b with a [r x m], b [r x n] (so a^T is [m x r]).
func gemmTN(out, a, b []float64, m, r, n int) {
	// Gradient matrices are small; the serial case builds no escaping closure.
	if m*r*n < gemmParallelThreshold {
		gemmTNRows(out, a, b, m, r, n, 0, m)
		return
	}
	parallelRows(func(i0, i1 int) { gemmTNRows(out, a, b, m, r, n, i0, i1) }, m, m*r*n)
}

// gemmTNRows accumulates output rows [i0,i1): out[i,:] += a[p,i]*b[p,:] in
// ascending p, skipping zero a entries (ReLU-sparse activations).
func gemmTNRows(out, a, b []float64, m, r, n, i0, i1 int) {
	if gemmTNRowsFast(out, a, b, m, r, n, i0, i1) {
		return
	}
	for p := 0; p < r; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// --- fused inference kernels (portable) ---
//
// The fast path (arena.go, fastops.go) fuses GEMM, bias and activation into
// one kernel per layer so steady-state inference makes a single pass over
// the output row instead of three ops with three intermediate tensors. The
// scalar kernels below are what gemm_batch.go falls back to where the
// AVX-512F panel kernels are unavailable; products and sums accumulate in T,
// the tier's own numerics. They are deliberately
// single-threaded: inference matrices are [HistoryT x dim] sized (far below
// gemmParallelThreshold) and the parallel experiment scheduler already
// saturates the cores one simulation per worker, so nested fan-out would
// only add overhead and nondeterminism.

// Act selects the activation fused into a kernel epilogue.
type Act int

// Activation kinds understood by the fused kernels.
const (
	ActNone Act = iota
	ActReLU
	ActSigmoid
	ActTanh
)

// applyAct applies act to row in place. Sigmoid and tanh evaluate through the
// float64 math package and round to T once — exact at float64, and on the f32
// tier the correctly-rounded reference its vector kernels are parity-tested
// against.
//
//mpgraph:noalloc
func applyAct[T float32 | float64](row []T, act Act) {
	switch act {
	case ActReLU:
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	case ActSigmoid:
		for i, v := range row {
			row[i] = T(1 / (1 + math.Exp(-float64(v))))
		}
	case ActTanh:
		for i, v := range row {
			row[i] = T(math.Tanh(float64(v)))
		}
	}
}

// gemmBiasAct computes out = act(a@b + bias) with a [m x k], b [k x n] and
// bias [n] (nil for no bias), overwriting out.
//
//mpgraph:noalloc
func gemmBiasAct[T float32 | float64](out, a, b, bias []T, m, k, n int, act Act) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		maddPanel(orow, a[i*k:(i+1)*k], b, n)
		if bias != nil {
			for j, bv := range bias {
				orow[j] += bv
			}
		}
		applyAct(orow, act)
	}
}

// shouldParallel reports whether parallelRows would actually fan out —
// callers with an allocation-free serial variant check it first so the
// escaping body closure is only built when goroutines will run it.
//
// The profitability test is per worker, not aggregate: a small-batch GEMM
// whose total flops clear the old threshold still loses to fan-out overhead
// when each worker's share is tiny, so every worker's slice must itself be
// worth a dispatch.
//
//mpgraph:noalloc
func shouldParallel(rows, flops int) bool {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || rows < 2*workers {
		return false
	}
	return flops/workers >= gemmParallelThreshold
}

// workerFault captures the first panic raised inside a worker goroutine so
// the spawning function can re-raise it on the caller's stack after the
// WaitGroup join. Without it a panicking worker kills the process from a
// goroutine no caller can recover around; tensor deliberately does not
// import resilience (it sits below that package), so the boundary lives
// here as a marked helper.
type workerFault struct {
	mu    sync.Mutex
	val   any
	stack []byte
}

// capture is deferred by every worker: it records the first panic (and its
// stack) and lets the rest of the pool drain normally.
//
// mpgraph:recovers
func (f *workerFault) capture() {
	r := recover()
	if r == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.val == nil {
		f.val = r
		f.stack = debug.Stack()
	}
}

// rethrow re-raises the captured worker panic, if any, on the spawner's
// stack, where callers' usual recovery boundaries apply.
//
// mpgraph:invariant
func (f *workerFault) rethrow() {
	if f.val == nil {
		return
	}
	panic(fmt.Sprintf("tensor: worker panic: %v\n%s", f.val, f.stack))
}

// parallelRows splits [0,rows) across workers when the flop estimate is
// large enough. Workers run behind a workerFault boundary and the join is
// unconditional, so a panicking body neither kills the process from a
// worker nor leaks a goroutine.
func parallelRows(body func(r0, r1 int), rows, flops int) {
	if !shouldParallel(rows, flops) {
		body(0, rows)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	var fault workerFault
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer fault.capture()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	fault.rethrow()
}

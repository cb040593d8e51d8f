// Batched multi-stream inference: a BatchScheduler collects pending model
// calls from concurrent serving sessions and runs them as one fused GEMM pass,
// amortizing weight traffic across sessions.
//
// Determinism contract: the batched kernels are composition-independent (a
// sample's output row is a pure function of that sample — see
// tensor/gemm_batch.go), so the grouping the scheduler happens to pick under
// scheduling races never changes any result bit. That is what keeps each
// session's predictions byte-identical for any batch size and session count.
//
// Liveness contract: a flush fires as soon as every session that could still
// submit has submitted (watermark min(batch, joined−inFlight)), with no
// wall-clock timers. Sessions in a non-inferring stretch delay a flush but
// never deadlock it: each joined session eventually submits again or Leaves,
// and Leave re-evaluates the watermark.
package prefetch

import (
	"sync"

	"mpgraph/internal/invariant"
	"mpgraph/internal/models"
	"mpgraph/internal/tensor"
)

// batchReq is one blocking model call in flight through the scheduler. A
// session owns exactly one, reused across calls; the result buffers and done
// channel live for the session's lifetime so steady state allocates nothing
// per call.
type batchReq struct {
	dm     models.DeltaModel
	pm     models.PageModel
	s      *models.Sample
	k      int
	scores []float64
	pages  []uint64
	done   chan struct{}
}

// BatchScheduler batches model calls from concurrent prefetcher sessions
// into fused multi-row inference passes. Workers block in their session's
// DeltaScores/TopPages call until the round containing their request runs;
// the worker that trips the flush watermark executes the round itself (no
// background goroutine, no timer).
type BatchScheduler struct {
	mu       sync.Mutex
	batch    int
	joined   int
	inFlight int
	flushing bool
	pending  []*batchReq

	// Flush-round scratch, reused every round; only the flusher touches it.
	// round is consumed by processRound (entries nil as they are grouped);
	// notify keeps the pristine set for the wake-up signals.
	ctx    *tensor.Ctx
	round  []*batchReq
	notify []*batchReq
	group  []*batchReq
	ss     []*models.Sample
	dst    [][]uint64
}

// NewBatchScheduler builds a scheduler that fuses up to batch requests per
// inference round.
func NewBatchScheduler(batch int) *BatchScheduler {
	invariant.Checkf(batch > 0, "prefetch: batch size %d must be positive", batch)
	return &BatchScheduler{batch: batch, ctx: tensor.NewCtx()}
}

// NewSession creates a session handle for one prefetcher. The handle is not
// counted by the flush watermark until Join.
func (b *BatchScheduler) NewSession() *BatchSession {
	return &BatchSession{sched: b, req: batchReq{done: make(chan struct{}, 1)}}
}

// readyLocked reports whether a flush round should fire: every session that
// could still submit has a request pending (or a full batch accumulated).
func (b *BatchScheduler) readyLocked() bool {
	if len(b.pending) == 0 {
		return false
	}
	lim := b.joined - b.inFlight
	if lim < 1 {
		lim = 1
	}
	if lim > b.batch {
		lim = b.batch
	}
	return len(b.pending) >= lim
}

// submit enqueues r and blocks until its round has run. The goroutine that
// makes the scheduler ready becomes the flusher.
func (b *BatchScheduler) submit(r *batchReq) {
	b.mu.Lock()
	b.pending = append(b.pending, r)
	b.runFlushesLocked() //mpgraph:allow lockcheck -- flush protocol: relocks before returning, and the inference pass runs outside the lock
	b.mu.Unlock()
	<-r.done
}

// runFlushesLocked drains flush rounds while the watermark holds and no other
// goroutine is mid-round. Called with b.mu held; temporarily releases it
// around the inference pass.
func (b *BatchScheduler) runFlushesLocked() {
	for !b.flushing && b.readyLocked() { //mpgraph:allow lockcheck -- readyLocked is pure field arithmetic and cannot panic
		b.flushing = true
		n := len(b.pending)
		if n > b.batch {
			n = b.batch
		}
		b.round = append(b.round[:0], b.pending[:n]...)
		b.notify = append(b.notify[:0], b.pending[:n]...)
		rest := copy(b.pending, b.pending[n:])
		for i := rest; i < len(b.pending); i++ {
			b.pending[i] = nil
		}
		b.pending = b.pending[:rest]
		b.inFlight += n

		b.mu.Unlock()
		b.processRound(b.round)
		b.mu.Lock()

		b.inFlight -= n
		b.flushing = false
		for _, r := range b.notify {
			r.done <- struct{}{} //mpgraph:allow lockcheck -- done is buffered (cap 1) with one outstanding request per session, so the send never blocks
		}
	}
}

// processRound groups the round's requests by (model, kind, k) with a linear
// scan in insertion order and runs one batched inference per group, copying
// each result row into the owning request's buffer.
func (b *BatchScheduler) processRound(round []*batchReq) {
	for i := range round {
		lead := round[i]
		if lead == nil {
			continue
		}
		b.group = b.group[:0]
		b.ss = b.ss[:0]
		for j := i; j < len(round); j++ {
			r := round[j]
			if r == nil {
				continue
			}
			if lead.dm != nil {
				if r.dm != lead.dm {
					continue
				}
			} else if r.pm != lead.pm || r.k != lead.k {
				continue
			}
			b.group = append(b.group, r)
			b.ss = append(b.ss, r.s)
			round[j] = nil
		}
		if lead.dm != nil {
			out := models.DeltaScoresBatchWith(b.ctx, lead.dm, b.ss)
			for gi, r := range b.group {
				r.scores = append(r.scores[:0], out.Data[gi*out.Cols:(gi+1)*out.Cols]...)
			}
		} else {
			b.dst = b.dst[:0]
			for _, r := range b.group {
				b.dst = append(b.dst, r.pages[:0])
			}
			models.TopPagesBatchWith(b.ctx, lead.pm, b.ss, lead.k, b.dst)
			for gi, r := range b.group {
				r.pages = b.dst[gi]
			}
		}
		b.ctx.Reset()
	}
}

// BatchSession is one prefetcher's handle into a BatchScheduler. Its model
// calls block until the scheduler runs the round containing them; the
// returned slices are session-owned and valid until the next call.
type BatchSession struct {
	sched *BatchScheduler
	req   batchReq
}

// Join registers the session with the flush watermark. Call before the
// session's simulation loop starts submitting.
func (s *BatchSession) Join() {
	s.sched.mu.Lock()
	s.sched.joined++
	s.sched.mu.Unlock()
}

// Leave unregisters the session and re-evaluates the watermark so waiters do
// not stall on a session that will never submit again.
func (s *BatchSession) Leave() {
	s.sched.mu.Lock()
	s.sched.joined--
	s.sched.runFlushesLocked() //mpgraph:allow lockcheck -- flush protocol: relocks before returning, and the inference pass runs outside the lock
	s.sched.mu.Unlock()
}

// DeltaScores runs the delta model on s through the batched tier and returns
// the raw score vector (session-owned, valid until the next call).
func (s *BatchSession) DeltaScores(m models.DeltaModel, sample *models.Sample) []float64 {
	r := &s.req
	r.dm, r.pm, r.s = m, nil, sample
	s.sched.submit(r)
	r.dm, r.s = nil, nil
	return r.scores
}

// TopPages runs the page model on s through the batched tier, appending the
// top-k pages to dst.
func (s *BatchSession) TopPages(m models.PageModel, sample *models.Sample, k int, dst []uint64) []uint64 {
	r := &s.req
	r.dm, r.pm, r.s, r.k, r.pages = nil, m, sample, k, dst
	s.sched.submit(r)
	out := r.pages
	r.pm, r.s, r.pages = nil, nil, nil
	return out
}

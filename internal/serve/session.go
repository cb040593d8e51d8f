package serve

import (
	"context"
	"fmt"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// session is one client's prefetch stream. All mutable state below the
// Server-owned lifecycle fields (busy/doomed/lastUse, guarded by Server.mu)
// is touched only by the single feed a session serves at a time, so the
// prediction path itself is lock-free.
type session struct {
	id  string
	srv *Server

	// Lifecycle, guarded by srv.mu.
	busy    bool
	doomed  bool
	lastUse uint64

	// guard is the degradation ladder: injectedPrimary (fault point) →
	// primary prefetcher, with the warm fallback underneath. Its CSTP
	// history and PBOT state are the fixed rings inside the primary.
	guard *prefetch.Guarded
	// csched is the session's deadline-aware handle into the batched
	// inference tier (nil when batching is off).
	csched *ctxSched
	// seq counts the session's lifetime events (1-based in predictions).
	seq uint64
	// preds buffers one chunk's predictions so network writes happen only
	// after the session has left the batch tier.
	preds []Prediction
	// slabHint is how many predicted blocks the previous chunk buffered: the
	// size of the next chunk's block slab.
	slabHint int
	// degradedCounted latches the Stats.Degraded increment.
	degradedCounted bool
}

// newSession assembles a session's prefetcher chain.
func (s *Server) newSession(id string) (*session, error) {
	var sched core.ModelScheduler
	var cs *ctxSched
	if s.cfg.NewModelSession != nil {
		if inner := s.cfg.NewModelSession(); inner != nil {
			cs = &ctxSched{inner: inner}
			sched = cs
		}
	}
	primary, err := s.cfg.NewPrimary(sched)
	if err != nil {
		return nil, fmt.Errorf("serve: building session %q: %w", id, err)
	}
	ip := &injectedPrimary{inner: primary, inj: s.cfg.Injector}
	guard := prefetch.NewGuarded(ip, s.cfg.NewFallback(), s.cfg.Guard, s.cfg.Events)
	return &session{id: id, srv: s, guard: guard, csched: cs}, nil
}

// process runs one feed: events stream through the prefetcher in
// FlushEvery-sized chunks. The session holds its batch-tier membership only
// while computing a chunk and leaves before the serve-flush fault point and
// the client emits — so a slow or dead client (or an injected flush fault)
// can never stall another session's fused inference round, and a drain
// never waits on a network write.
func (sess *session) process(ctx context.Context, events []Event, emit func(Prediction) error) error {
	srv := sess.srv
	every := srv.cfg.FlushEvery
	for start := 0; start < len(events); start += every {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + every
		if end > len(events) {
			end = len(events)
		}
		sess.runChunk(ctx, events[start:end])
		if err := srv.cfg.Injector.Fire(resilience.PointServeFlush); err != nil {
			return fmt.Errorf("serve: flush fault: %w", err)
		}
		for _, p := range sess.preds {
			if err := emit(p); err != nil {
				return fmt.Errorf("serve: emitting prediction: %w", err)
			}
		}
		srv.predictions.Add(uint64(len(sess.preds)))
	}
	return nil
}

// runChunk feeds one chunk of events through the prefetcher inside a
// join/leave window of the batch tier, buffering predictions in sess.preds.
// Deadline expiry mid-chunk does not abort the chunk: the ctxSched
// short-circuits the remaining model calls to empty predictions, the chunk
// finishes fast, and the session leaves the tier — which is exactly the
// liveness obligation a joined session owes the flush watermark.
//
// A prefetcher's result is its own reused buffer, so each prediction keeps a
// copy — carved from one slab per chunk instead of allocated per prediction.
// The slab is fresh every chunk because emit may retain a Prediction, and each
// carving is capped at its own length so appending to one cannot reach the
// next.
func (sess *session) runChunk(ctx context.Context, chunk []Event) {
	sess.preds = sess.preds[:0]
	var slab []uint64
	buffered := 0
	sess.csched.bind(ctx)
	sess.guard.JoinBatch()
	for i, ev := range chunk {
		sess.seq++
		blocks := sess.guard.Operate(sim.LLCAccess{Block: trace.Block(ev.Addr), PC: ev.PC, Core: ev.Core})
		if len(blocks) > 0 {
			if cap(slab)-len(slab) < len(blocks) {
				// The first prediction of a chunk, or more blocks than the
				// last chunk had: room for what that chunk buffered, or for
				// this many per event still to come.
				slab = make([]uint64, 0, max(sess.slabHint, len(blocks)*(len(chunk)-i)))
			}
			lo := len(slab)
			slab = append(slab, blocks...)
			buffered += len(blocks)
			sess.preds = append(sess.preds, Prediction{
				Session: sess.id,
				Seq:     sess.seq,
				Blocks:  slab[lo:len(slab):len(slab)],
			})
		}
	}
	sess.slabHint = buffered
	sess.guard.LeaveBatch()
	sess.csched.unbind()
	sess.srv.events.Add(uint64(len(chunk)))
	if sess.guard.Quarantined() && !sess.degradedCounted {
		sess.degradedCounted = true
		sess.srv.degraded.Add(1)
	}
}

// ctxSched threads a feed's deadline through the core.ModelScheduler seam:
// once the bound context expires, model calls stop submitting to the batch
// tier and yield empty results, which models.AppendDeltaTargets decodes to
// zero candidates. The session stays joined until its chunk ends, and a
// non-submitting expired session finishes its chunk without blocking, so
// the watermark's liveness contract holds. bind is called only by the
// session's single in-flight feed, never concurrently with a model call.
type ctxSched struct {
	inner core.ModelScheduler
	ctx   context.Context
}

// bind attaches the current feed's context. Nil-safe: a nil ctxSched means
// batching is off.
func (c *ctxSched) bind(ctx context.Context) {
	if c != nil {
		c.ctx = ctx
	}
}

// unbind detaches the context once the chunk's model calls are done.
func (c *ctxSched) unbind() {
	if c != nil {
		c.ctx = nil
	}
}

func (c *ctxSched) expired() bool { return c.ctx != nil && c.ctx.Err() != nil }

// Join implements core.ModelScheduler.
func (c *ctxSched) Join() { c.inner.Join() }

// Leave implements core.ModelScheduler.
func (c *ctxSched) Leave() { c.inner.Leave() }

// DeltaScores implements core.ModelScheduler; past the deadline it returns
// nil scores, which decode to zero prefetch candidates.
func (c *ctxSched) DeltaScores(m models.DeltaModel, s *models.Sample) []float64 {
	if c.expired() {
		return nil
	}
	return c.inner.DeltaScores(m, s)
}

// TopPages implements core.ModelScheduler; past the deadline it returns dst
// unchanged (no candidates appended).
func (c *ctxSched) TopPages(m models.PageModel, s *models.Sample, k int, dst []uint64) []uint64 {
	if c.expired() {
		return dst
	}
	return c.inner.TopPages(m, s, k, dst)
}

// injectedPrimary interposes the serve-session fault point between the
// Guarded boundary and the session's primary prefetcher, so injected faults
// exercise the same degradation ladder real defects do: an injected panic
// surfaces as a panic-recovered violation, an injected error latches into
// Health and surfaces as a model-health violation on the same access. Each
// firing costs exactly one violation (the latch clears once read), matching
// the per-defect accounting of organic failures.
type injectedPrimary struct {
	inner sim.Prefetcher
	inj   *resilience.Injector
	fault error
}

// Name implements sim.Prefetcher.
func (p *injectedPrimary) Name() string { return p.inner.Name() }

// Operate implements sim.Prefetcher. An injected panic propagates to the
// Guarded recovery boundary; an injected error suppresses this access's
// prediction and is reported through Health.
func (p *injectedPrimary) Operate(acc sim.LLCAccess) []uint64 {
	if err := p.inj.Fire(resilience.PointServeSession); err != nil {
		p.fault = err
		return nil
	}
	return p.inner.Operate(acc)
}

// Health implements sim.HealthReporter: the latched injected fault first,
// then the inner prefetcher's own self-screening.
func (p *injectedPrimary) Health() error {
	if p.fault != nil {
		err := p.fault
		p.fault = nil
		return err
	}
	if hr, ok := p.inner.(sim.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

// InferenceLatencyCycles implements sim.InferenceLatency by delegation.
func (p *injectedPrimary) InferenceLatencyCycles() uint64 {
	if il, ok := p.inner.(sim.InferenceLatency); ok {
		return il.InferenceLatencyCycles()
	}
	return 0
}

// JoinBatch forwards batch-tier registration to the inner prefetcher (the
// Guarded wrapper reaches the primary through this chain).
func (p *injectedPrimary) JoinBatch() {
	if j, ok := p.inner.(interface{ JoinBatch() }); ok {
		j.JoinBatch()
	}
}

// LeaveBatch forwards batch-tier deregistration to the inner prefetcher.
func (p *injectedPrimary) LeaveBatch() {
	if l, ok := p.inner.(interface{ LeaveBatch() }); ok {
		l.LeaveBatch()
	}
}

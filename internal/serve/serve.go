// Package serve is the long-running prefetch inference service (DESIGN.md
// §12): clients stream (addr, PC, core) demand events into named sessions
// and receive prefetch-candidate streams back. Where the experiments runner
// is batch — train, sweep, exit — this package is the "millions of users"
// backbone the ROADMAP names: a daemon whose robustness properties are the
// product.
//
// The robustness spine:
//
//   - Admission control: the session table is bounded at Config.MaxSessions.
//     A new session either evicts the least-recently-used idle session or is
//     rejected with ErrSaturated, which the HTTP layer maps to 429 plus a
//     Retry-After backoff hint. State is bounded by construction: each
//     session's CSTP history and PBOT live in fixed-size ring buffers and
//     tables inside its prefetcher.
//   - Per-session degradation: every session's primary prefetcher sits
//     behind prefetch.Guarded with a warm BO fallback, so a poisoned model,
//     a recovered panic, or an out-of-range prediction benches one session —
//     never the daemon. The serve-session fault point fires inside that
//     boundary; serve-admit and serve-flush fire at the admission and
//     stream-flush boundaries, each contained to one request.
//   - Deadline propagation: a feed's context is checked between events and
//     threaded through the core.ModelScheduler seam (ctxSched), so an
//     expired request degrades in-flight model calls to empty predictions
//     instead of blocking in the batch tier.
//   - Graceful drain: Shutdown stops admissions, waits for in-flight feeds
//     (each of which holds its batch-scheduler membership only while
//     actively submitting — the chunked flush protocol in session.go), and
//     closes every session. No timers, no leaked goroutines.
//
// The package is transport-agnostic: Server is driven directly by tests and
// the replay mode, and NewHandler (http.go) exposes it over HTTP/JSONL.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
)

// Event is one demand access streamed by a client: the byte address, the
// program counter of the access, and the issuing core.
type Event struct {
	Addr uint64 `json:"addr"`
	PC   uint64 `json:"pc"`
	Core uint8  `json:"core"`
}

// Prediction is one prefetch-candidate record streamed back to the client.
// Seq is the 1-based index of the triggering event within the session's
// lifetime (it keeps counting across feeds), Blocks the predicted
// cache-block addresses.
type Prediction struct {
	Session string   `json:"session"`
	Seq     uint64   `json:"seq"`
	Blocks  []uint64 `json:"prefetch"`
}

// predictionHead returns the bytes every encoded Prediction of session id
// starts with, up to and including `"seq":`. encoding/json quotes the id, so
// its escaping is exactly what json.Encoder gives a Prediction.
func predictionHead(id string) []byte {
	q, _ := json.Marshal(id) //mpgraph:allow errdrop -- a string always marshals
	return append(append([]byte(`{"session":`), q...), `,"seq":`...)
}

// appendPrediction appends p to dst as json.Encoder.Encode renders it: one
// JSON object and a newline. head is predictionHead(p.Session). The HTTP
// stream and the replay log both encode through it.
func appendPrediction(dst, head []byte, p Prediction) []byte {
	dst = append(dst, head...)
	dst = strconv.AppendUint(dst, p.Seq, 10)
	if p.Blocks == nil {
		return append(dst, `,"prefetch":null}`+"\n"...)
	}
	dst = append(dst, `,"prefetch":[`...)
	for i, b := range p.Blocks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, b, 10)
	}
	return append(dst, "]}\n"...)
}

// The admission and lifecycle errors the transport layers map to statuses.
var (
	// ErrSaturated rejects a new session while the table is full of busy
	// sessions (HTTP 429 + Retry-After).
	ErrSaturated = errors.New("serve: session table saturated")
	// ErrDraining rejects any feed after Shutdown began (HTTP 503).
	ErrDraining = errors.New("serve: server draining")
	// ErrSessionBusy rejects a feed for a session already serving one
	// (HTTP 409): a session is a single ordered event stream.
	ErrSessionBusy = errors.New("serve: session busy")
)

// AdmissionError wraps an injected or internal failure of the admission
// step itself (HTTP 503): the session was never created.
type AdmissionError struct{ Cause error }

// Error implements error.
func (e *AdmissionError) Error() string { return "serve: admission failed: " + e.Cause.Error() }

// Unwrap exposes the cause.
func (e *AdmissionError) Unwrap() error { return e.Cause }

// Config assembles a Server.
type Config struct {
	// MaxSessions bounds the session table (default 256). Admission beyond
	// it evicts the LRU idle session or fails with ErrSaturated.
	MaxSessions int
	// FlushEvery is the streamed-chunk size in events (default 64). A feed
	// joins the batch-inference tier only while processing a chunk and
	// leaves before emitting it, so a slow client write never stalls other
	// sessions' fused inference rounds.
	FlushEvery int
	// RetryAfter is the backoff hint, in seconds, attached to saturation
	// and drain rejections (default 1).
	RetryAfter int
	// RequestTimeout bounds one feed request (applied by the HTTP layer;
	// default 30s). A feed checks it between FlushEvery chunks. Only when
	// NewModelSession returns a handle does it also reach model calls,
	// which then return no candidates for the rest of the chunk.
	RequestTimeout time.Duration
	// MaxEventsPerFeed bounds one feed's event batch (default 65536).
	MaxEventsPerFeed int
	// Guard tunes the per-session degradation ladder (see
	// prefetch.GuardConfig; zero value = defaults).
	Guard prefetch.GuardConfig
	// NewPrimary builds one session's primary prefetcher. sched is the
	// session's handle into the batched-inference tier (nil when batching
	// is off) and must be installed as the prefetcher's model scheduler; a
	// non-nil handle carries the request deadline into model calls.
	NewPrimary func(sched core.ModelScheduler) (sim.Prefetcher, error)
	// NewModelSession returns a fresh handle into a shared batched-
	// inference scheduler, or nil to run sessions unbatched (e.g.
	// experiments.Runner.NewModelSession).
	NewModelSession func() core.ModelScheduler
	// NewFallback builds one session's warm fallback (default: BO at its
	// reference configuration).
	NewFallback func() sim.Prefetcher
	// Injector arms the serve-admit / serve-session / serve-flush fault
	// points (nil = disarmed).
	Injector *resilience.Injector
	// Events receives degradation events (nil = dropped).
	Events *resilience.Log
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxEventsPerFeed <= 0 {
		c.MaxEventsPerFeed = 1 << 16
	}
	if c.NewFallback == nil {
		c.NewFallback = func() sim.Prefetcher { return prefetch.NewBO(prefetch.DefaultBOConfig()) }
	}
	return c
}

// Stats is a snapshot of the server counters.
type Stats struct {
	// ActiveSessions is the current session-table population;
	// PeakSessions its high-water mark (always <= MaxSessions).
	ActiveSessions int    `json:"active_sessions"`
	PeakSessions   int    `json:"peak_sessions"`
	Admitted       uint64 `json:"admitted"`
	Rejected       uint64 `json:"rejected"`
	Evicted        uint64 `json:"evicted"`
	Closed         uint64 `json:"closed"`
	AdmitFaults    uint64 `json:"admit_faults"`
	Feeds          uint64 `json:"feeds"`
	FeedErrors     uint64 `json:"feed_errors"`
	Events         uint64 `json:"events"`
	Predictions    uint64 `json:"predictions"`
	Degraded       uint64 `json:"degraded_sessions"`
	Draining       bool   `json:"draining"`
}

// Server is the session-table core of the daemon. It is safe for concurrent
// use; one session serves at most one feed at a time.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	clock    uint64 // logical LRU clock: bumped on every acquire/release
	draining bool
	peak     int

	// wg counts in-flight feeds; Shutdown joins it.
	wg sync.WaitGroup

	admitted, rejected, evicted, closed atomic.Uint64
	admitFaults, feeds, feedErrors      atomic.Uint64
	events, predictions, degraded       atomic.Uint64
}

// New builds a Server. Config.NewPrimary is required.
func New(cfg Config) (*Server, error) {
	if cfg.NewPrimary == nil {
		return nil, fmt.Errorf("serve: Config.NewPrimary is required")
	}
	return &Server{cfg: cfg.withDefaults(), sessions: map[string]*session{}}, nil
}

// Config returns the resolved (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active, peak, draining := len(s.sessions), s.peak, s.draining
	s.mu.Unlock()
	return Stats{
		ActiveSessions: active,
		PeakSessions:   peak,
		Admitted:       s.admitted.Load(),
		Rejected:       s.rejected.Load(),
		Evicted:        s.evicted.Load(),
		Closed:         s.closed.Load(),
		AdmitFaults:    s.admitFaults.Load(),
		Feeds:          s.feeds.Load(),
		FeedErrors:     s.feedErrors.Load(),
		Events:         s.events.Load(),
		Predictions:    s.predictions.Load(),
		Degraded:       s.degraded.Load(),
		Draining:       draining,
	}
}

// Feed streams one batch of events into session id, creating it under
// admission control if absent, and emits every non-empty prediction through
// emit in event order. The whole feed runs inside a resilience boundary:
// a panic anywhere (injected or real) fails this request, logs a
// degradation event, and leaves the daemon serving.
func (s *Server) Feed(ctx context.Context, id string, events []Event, emit func(Prediction) error) error {
	return s.feed(ctx, id, events, func(chunk []Prediction) error {
		for _, p := range chunk {
			if err := emit(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// feed is Feed with one emit call per flushed chunk: the chunk's predictions
// in event order, never empty. The slice is the session's buffer, valid until
// emit returns; the Predictions themselves (and their Blocks) stay valid.
func (s *Server) feed(ctx context.Context, id string, events []Event, emit func([]Prediction) error) error {
	if len(events) > s.cfg.MaxEventsPerFeed {
		return fmt.Errorf("serve: feed of %d events exceeds the %d-event bound", len(events), s.cfg.MaxEventsPerFeed)
	}
	sess, err := s.acquire(id)
	if err != nil {
		return err
	}
	defer s.release(sess)
	s.feeds.Add(1)
	err = resilience.Guard("serve/session/"+id, func() error {
		return sess.process(ctx, events, emit)
	})
	if err != nil {
		s.feedErrors.Add(1)
		s.cfg.Events.Add("serve/session/"+id, "request-failed", err.Error())
	}
	return err
}

// Close removes session id. A busy session is doomed instead: it finishes
// its in-flight feed and is then removed. Reports whether the id existed.
func (s *Server) Close(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		if sess.busy {
			sess.doomed = true
		} else {
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	if ok {
		s.closed.Add(1)
		s.cfg.Events.Add("serve/session/"+id, "closed", "client close")
	}
	return ok
}

// Shutdown drains the server: new feeds are rejected with ErrDraining,
// in-flight feeds run to completion (each leaves the batch tier before its
// final flush, so the drain cannot deadlock on a fused inference round),
// and every session is then closed. Returns ctx.Err() if the context
// expires first; the drain keeps progressing regardless, so a later call
// can complete it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { //mpgraph:detached -- outlives an expired Shutdown deadline by design; a later Shutdown call rejoins the drain via done
		defer close(done)
		if err := resilience.Guard("serve.shutdown-wait", s.waitFeeds); err != nil {
			s.cfg.Events.Add("serve/shutdown", "panic-recovered", err.Error())
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}

	s.mu.Lock()
	n := len(s.sessions)
	for id := range s.sessions {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	s.closed.Add(uint64(n))
	s.cfg.Events.Add("serve/shutdown", "drained", fmt.Sprintf("%d sessions closed", n))
	return nil
}

// waitFeeds joins the in-flight feed WaitGroup (a named method so the
// shutdown goroutine has a boundary-wrapped body).
func (s *Server) waitFeeds() error {
	s.wg.Wait()
	return nil
}

// acquire resolves id to a busy-marked session, admitting (and possibly
// evicting) under the table lock. Injector firing, session construction,
// and event logging all happen outside the lock.
func (s *Server) acquire(id string) (*session, error) {
	sess, err := s.claim(id, nil)
	if err != nil || sess != nil {
		return sess, err
	}

	// Admission: the serve-admit point fires outside the table lock and
	// inside its own recovery boundary, so an injected panic surfaces as a
	// per-request admission failure.
	if err := resilience.Guard("serve.admit", func() error {
		return s.cfg.Injector.Fire(resilience.PointServeAdmit)
	}); err != nil {
		s.admitFaults.Add(1)
		s.cfg.Events.Add("serve/admit", "injected-fault", err.Error())
		return nil, &AdmissionError{Cause: err}
	}
	fresh, err := s.newSession(id)
	if err != nil {
		return nil, err
	}
	return s.claim(id, fresh)
}

// claim is the locked half of acquire. With fresh == nil it only resolves
// an existing session (nil, nil means "absent: build one and call again").
// With fresh != nil it installs it, evicting the LRU idle session when the
// table is full; a concurrent creator of the same id wins and fresh is
// discarded in favour of the existing session.
func (s *Server) claim(id string, fresh *session) (*session, error) {
	sess, evictedID, installed, err := s.claimLocked(id, fresh)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			s.rejected.Add(1)
		}
		return nil, err
	}
	if installed {
		s.admitted.Add(1)
		if evictedID != "" {
			s.evicted.Add(1)
			s.cfg.Events.Add("serve/session/"+evictedID, "evicted", "LRU idle eviction for "+id)
		}
	}
	return sess, nil
}

// claimLocked is the critical section of claim; counters and event logging
// stay outside so nothing observable happens under the table lock.
func (s *Server) claimLocked(id string, fresh *session) (sess *session, evictedID string, installed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, "", false, ErrDraining
	}
	if existing := s.sessions[id]; existing != nil {
		if existing.busy {
			return nil, "", false, ErrSessionBusy
		}
		s.markBusyLocked(existing)
		return existing, "", false, nil
	}
	if fresh == nil {
		return nil, "", false, nil
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		victim := s.lruIdleLocked()
		if victim == nil {
			return nil, "", false, ErrSaturated
		}
		delete(s.sessions, victim.id)
		evictedID = victim.id
	}
	s.sessions[id] = fresh
	if len(s.sessions) > s.peak {
		s.peak = len(s.sessions)
	}
	s.markBusyLocked(fresh)
	return fresh, evictedID, true, nil
}

// markBusyLocked transitions a session to busy and registers the feed with
// the drain WaitGroup. Caller holds s.mu.
func (s *Server) markBusyLocked(sess *session) {
	sess.busy = true
	s.clock++
	sess.lastUse = s.clock
	s.wg.Add(1)
}

// lruIdleLocked returns the idle session with the oldest lastUse, or nil
// when every session is busy. Caller holds s.mu. The logical clock is
// strictly monotonic, so the minimum is unique and the map's iteration
// order cannot influence the choice.
func (s *Server) lruIdleLocked() *session {
	var victim *session
	for _, sess := range s.sessions {
		if sess.busy {
			continue
		}
		if victim == nil || sess.lastUse < victim.lastUse {
			victim = sess
		}
	}
	return victim
}

// release returns a session to idle (or removes it, if doomed by a
// concurrent Close) and signals the drain WaitGroup.
func (s *Server) release(sess *session) {
	s.mu.Lock()
	sess.busy = false
	s.clock++
	sess.lastUse = s.clock
	if sess.doomed {
		delete(s.sessions, sess.id)
	}
	s.mu.Unlock()
	s.wg.Done()
}

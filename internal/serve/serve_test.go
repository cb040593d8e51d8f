package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
)

// stubPF is a deterministic scriptable prefetcher for lifecycle tests: the
// real-model integration paths are covered by the chaos and replay tests.
type stubPF struct {
	name string
	op   func(sim.LLCAccess) []uint64
}

func (s *stubPF) Name() string                     { return s.name }
func (s *stubPF) Operate(a sim.LLCAccess) []uint64 { return s.op(a) }

// echoPF returns a primary that predicts the next block after each access.
func echoPF() sim.Prefetcher {
	return &stubPF{name: "echo", op: func(a sim.LLCAccess) []uint64 { return []uint64{a.Block + 1} }}
}

// stubConfig is a small-knob server config over stub prefetchers.
func stubConfig(primary func() sim.Prefetcher) Config {
	return Config{
		MaxSessions: 4,
		FlushEvery:  8,
		NewPrimary: func(core.ModelScheduler) (sim.Prefetcher, error) {
			return primary(), nil
		},
		NewFallback: func() sim.Prefetcher {
			return &stubPF{name: "fallback", op: func(sim.LLCAccess) []uint64 { return []uint64{9000} }}
		},
		Events: &resilience.Log{},
	}
}

func mustServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// evs generates n deterministic events.
func evs(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{Addr: uint64(1<<20 + i*64), PC: 0x400040, Core: 1}
	}
	return out
}

// collect feeds events and returns the emitted predictions.
func collect(t *testing.T, srv *Server, id string, events []Event) []Prediction {
	t.Helper()
	var got []Prediction
	if err := srv.Feed(context.Background(), id, events, func(p Prediction) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatalf("Feed(%s): %v", id, err)
	}
	return got
}

func TestConfigRequiresPrimary(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without NewPrimary must fail")
	}
}

// TestFeedStreamsInOrder: predictions carry the session's lifetime sequence
// numbers, continuing across feeds to the same session.
func TestFeedStreamsInOrder(t *testing.T) {
	srv := mustServer(t, stubConfig(echoPF))
	got := collect(t, srv, "s1", evs(20))
	if len(got) != 20 {
		t.Fatalf("got %d predictions, want 20", len(got))
	}
	for i, p := range got {
		if p.Seq != uint64(i+1) || p.Session != "s1" {
			t.Fatalf("prediction %d = %+v, want seq %d session s1", i, p, i+1)
		}
		if len(p.Blocks) != 1 || p.Blocks[0] != evs(20)[i].Addr>>6+1 {
			t.Fatalf("prediction %d blocks = %v", i, p.Blocks)
		}
	}
	// A second feed reuses the session: the sequence continues.
	more := collect(t, srv, "s1", evs(4))
	if more[0].Seq != 21 {
		t.Fatalf("second feed starts at seq %d, want 21", more[0].Seq)
	}
	st := srv.Stats()
	if st.Admitted != 1 || st.ActiveSessions != 1 || st.Events != 24 || st.Predictions != 24 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestChunkBlocksShareOneSlab: a chunk's predictions carve their block lists
// from one allocation instead of one each, and still own them: a prediction
// kept past the next chunk reads what it was emitted with, and appending to
// one does not write into its neighbour.
func TestChunkBlocksShareOneSlab(t *testing.T) {
	buf := make([]uint64, 3)
	cfg := stubConfig(func() sim.Prefetcher {
		// As the real prefetchers do, hand back one reused buffer.
		return &stubPF{name: "reuse", op: func(a sim.LLCAccess) []uint64 {
			buf[0], buf[1], buf[2] = a.Block+1, a.Block+2, a.Block+3
			return buf[:1+a.Block%3]
		}}
	})
	cfg.NewFallback = func() sim.Prefetcher {
		return &stubPF{name: "silent", op: func(sim.LLCAccess) []uint64 { return nil }}
	}
	srv := mustServer(t, cfg)
	sess, err := srv.acquire("s1")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.release(sess)
	chunk := evs(64)
	ctx := context.Background()

	sess.runChunk(ctx, chunk)
	kept := append([]Prediction(nil), sess.preds...)
	if len(kept) != len(chunk) {
		t.Fatalf("%d predictions for %d events", len(kept), len(chunk))
	}
	_ = append(kept[0].Blocks, 12345) // must not land in kept[1]
	sess.runChunk(ctx, chunk)
	for i, p := range kept {
		b := chunk[i].Addr >> 6
		want := []uint64{b + 1, b + 2, b + 3}[:1+b%3]
		if !slices.Equal(p.Blocks, want) {
			t.Fatalf("prediction %d kept across a chunk reads %v, want %v", i, p.Blocks, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { sess.runChunk(ctx, chunk) }); allocs > 1 {
		t.Fatalf("a %d-event chunk allocates %.1f times, want the one slab", len(chunk), allocs)
	}
}

// blockingHarness holds sessions busy deterministically: each session's
// first Operate signals readiness and then blocks until release.
type blockingHarness struct {
	started chan string
	release chan struct{}
}

func newBlockingHarness() *blockingHarness {
	return &blockingHarness{started: make(chan string, 16), release: make(chan struct{})}
}

func (h *blockingHarness) primary(id string) func() sim.Prefetcher {
	return func() sim.Prefetcher {
		first := true
		return &stubPF{name: "blocking", op: func(a sim.LLCAccess) []uint64 {
			if first {
				first = false
				h.started <- id
				<-h.release
			}
			return []uint64{a.Block + 1}
		}}
	}
}

// TestAdmissionControl: a full table of busy sessions rejects new sessions
// with ErrSaturated, concurrent feeds to one session conflict, and idle
// sessions are LRU-evicted to admit newcomers.
func TestAdmissionControl(t *testing.T) {
	h := newBlockingHarness()
	cfg := stubConfig(nil)
	next := "a"
	cfg.NewPrimary = func(core.ModelScheduler) (sim.Prefetcher, error) {
		return h.primary(next)(), nil
	}
	cfg.MaxSessions = 2
	srv := mustServer(t, cfg)

	var wg sync.WaitGroup
	feedAsync := func(id string) {
		next = id
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Feed(context.Background(), id, evs(2), func(Prediction) error { return nil })
		}()
		if got := <-h.started; got != id {
			t.Errorf("session %s started, want %s", got, id)
		}
	}
	feedAsync("a")
	feedAsync("b")

	// Table full of busy sessions: no idle victim, so a new session is
	// rejected with the backoff error.
	if err := srv.Feed(context.Background(), "c", evs(1), nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Feed(c) while saturated = %v, want ErrSaturated", err)
	}
	// A second feed to a busy session conflicts rather than interleaving.
	if err := srv.Feed(context.Background(), "a", evs(1), nil); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent Feed(a) = %v, want ErrSessionBusy", err)
	}
	close(h.release)
	wg.Wait()

	// Both sessions idle now: a newcomer evicts the LRU one.
	collect(t, srv, "c", evs(1))
	st := srv.Stats()
	if st.Evicted != 1 || st.Rejected != 1 || st.Admitted != 3 || st.ActiveSessions != 2 {
		t.Fatalf("stats = %+v, want 1 evicted / 1 rejected / 3 admitted / 2 active", st)
	}
	if st.PeakSessions > 2 {
		t.Fatalf("peak sessions %d exceeded MaxSessions 2", st.PeakSessions)
	}
}

// TestLRUEvictionOrder: the idle session with the oldest last use is the
// victim, and an evicted session's state is gone (its sequence restarts).
func TestLRUEvictionOrder(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.MaxSessions = 2
	srv := mustServer(t, cfg)
	collect(t, srv, "old", evs(3))
	collect(t, srv, "young", evs(3))
	collect(t, srv, "old", evs(3)) // "old" is now the most recently used
	collect(t, srv, "newcomer", evs(1))

	if got := collect(t, srv, "old", evs(1)); got[0].Seq != 7 {
		t.Fatalf("survivor's seq = %d, want 7 (state retained)", got[0].Seq)
	}
	// "young" was the LRU victim; re-admitting it starts a fresh session.
	if got := collect(t, srv, "young", evs(1)); got[0].Seq != 1 {
		t.Fatalf("evicted session's seq = %d, want 1 (state dropped)", got[0].Seq)
	}
	if st := srv.Stats(); st.Evicted != 2 {
		t.Fatalf("stats = %+v, want 2 evictions", st)
	}
}

// TestCloseSession: close removes idle sessions immediately and dooms busy
// ones, which vanish when their feed completes.
func TestCloseSession(t *testing.T) {
	srv := mustServer(t, stubConfig(echoPF))
	collect(t, srv, "idle", evs(1))
	if !srv.Close("idle") {
		t.Fatal("Close(idle) = false, want true")
	}
	if srv.Close("idle") {
		t.Fatal("second Close must report an unknown session")
	}
	// Re-feeding re-admits with fresh state.
	if got := collect(t, srv, "idle", evs(1)); got[0].Seq != 1 {
		t.Fatalf("seq after close = %d, want 1", got[0].Seq)
	}

	// Closing a busy session dooms it: the in-flight feed completes, then
	// the session vanishes.
	h := newBlockingHarness()
	srv2 := mustServer(t, stubConfig(h.primary("busy")))
	done := make(chan error, 1)
	go func() {
		done <- srv2.Feed(context.Background(), "busy", evs(2), func(Prediction) error { return nil })
	}()
	<-h.started
	if !srv2.Close("busy") {
		t.Fatal("Close(busy) = false, want true")
	}
	close(h.release)
	if err := <-done; err != nil {
		t.Fatalf("doomed feed = %v", err)
	}
	if st := srv2.Stats(); st.ActiveSessions != 0 {
		t.Fatalf("stats = %+v, want the doomed session removed", st)
	}
}

// TestRequestDeadline: a canceled context fails the feed between chunks;
// predictions already computed in the finished chunk were emitted, nothing
// deadlocks, and the session stays usable.
func TestRequestDeadline(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.FlushEvery = 2
	srv := mustServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	var got []Prediction
	err := srv.Feed(ctx, "s", evs(10), func(p Prediction) error {
		got = append(got, p)
		cancel() // expire the request after the first emitted chunk
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Feed = %v, want context.Canceled", err)
	}
	if len(got) != 2 {
		t.Fatalf("emitted %d predictions, want exactly the first chunk (2)", len(got))
	}
	// The session survives the timed-out request.
	if more := collect(t, srv, "s", evs(1)); more[0].Seq != 3 {
		t.Fatalf("post-deadline seq = %d, want 3", more[0].Seq)
	}
	if st := srv.Stats(); st.FeedErrors != 1 {
		t.Fatalf("stats = %+v, want 1 feed error", st)
	}

	// Over HTTP the truncated stream ends on the chunk boundary, followed by
	// the error trailer.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	fc := serveFeed(t, mustServer(t, cfg), ctx, "h", evs(10), cancel)
	want := replayLog(t, cfg, "h", evs(2))
	want = append(want, `{"error":"context canceled"}`+"\n"...)
	if fc.Code != http.StatusOK || fc.flushes != 1 || !bytes.Equal(fc.Body.Bytes(), want) {
		t.Fatalf("truncated stream: status %d, %d flushes, body\n%s\nwant one flush and\n%s", fc.Code, fc.flushes, fc.Body, want)
	}
}

// TestShutdownDrains: draining rejects new feeds, waits for in-flight ones,
// and empties the session table without deadlock.
func TestShutdownDrains(t *testing.T) {
	h := newBlockingHarness()
	cfg := stubConfig(h.primary("s1"))
	srv := mustServer(t, cfg)

	feedDone := make(chan error, 1)
	go func() {
		feedDone <- srv.Feed(context.Background(), "s1", evs(2), func(Prediction) error { return nil })
	}()
	<-h.started

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	waitForDraining(t, srv)

	// New work is rejected while draining.
	if err := srv.Feed(context.Background(), "s2", evs(1), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Feed while draining = %v, want ErrDraining", err)
	}
	close(h.release)
	if err := <-feedDone; err != nil {
		t.Fatalf("in-flight feed failed during drain: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	st := srv.Stats()
	if st.ActiveSessions != 0 || !st.Draining {
		t.Fatalf("post-drain stats = %+v, want empty drained table", st)
	}
	// Shutdown is sticky.
	if err := srv.Feed(context.Background(), "s3", evs(1), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Feed after shutdown = %v, want ErrDraining", err)
	}
}

// TestShutdownDeadline: a drain blocked on a stuck feed respects the
// caller's deadline and can be completed by a later call.
func TestShutdownDeadline(t *testing.T) {
	h := newBlockingHarness()
	cfg := stubConfig(h.primary("s1"))
	srv := mustServer(t, cfg)
	feedDone := make(chan error, 1)
	go func() {
		feedDone <- srv.Feed(context.Background(), "s1", evs(2), func(Prediction) error { return nil })
	}()
	<-h.started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with stuck feed = %v, want deadline exceeded", err)
	}
	close(h.release)
	if err := <-feedDone; err != nil {
		t.Fatalf("feed = %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown = %v", err)
	}
	if st := srv.Stats(); st.ActiveSessions != 0 {
		t.Fatalf("stats = %+v, want empty table", st)
	}
}

// TestAdmissionFaultInjection: injected admission faults (error and panic)
// fail only that request, are logged, and leave the daemon serving.
func TestAdmissionFaultInjection(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.Injector = resilience.NewInjector(1).
		Arm(resilience.PointServeAdmit, resilience.KindErr, 1)
	srv := mustServer(t, cfg)
	err := srv.Feed(context.Background(), "s1", evs(1), nil)
	var admit *AdmissionError
	if !errors.As(err, &admit) {
		t.Fatalf("Feed under admit fault = %v, want AdmissionError", err)
	}
	// The fault fired once; the next admission succeeds.
	collect(t, srv, "s1", evs(1))
	st := srv.Stats()
	if st.AdmitFaults != 1 || st.Admitted != 1 {
		t.Fatalf("stats = %+v, want 1 admit fault then 1 admission", st)
	}

	// Panic kind: recovered at the admission boundary, same classification.
	cfg2 := stubConfig(echoPF)
	cfg2.Injector = resilience.NewInjector(1).
		Arm(resilience.PointServeAdmit, resilience.KindPanic, 1)
	srv2 := mustServer(t, cfg2)
	err = srv2.Feed(context.Background(), "p", evs(1), nil)
	if !errors.As(err, &admit) {
		t.Fatalf("Feed under admit panic = %v, want AdmissionError", err)
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("AdmissionError cause = %v, want recovered panic", err)
	}
	collect(t, srv2, "p", evs(1))
}

// TestSessionFaultDegradesToFallback: an injected session fault trips the
// Guarded ladder — the faulted access and everything after quarantine is
// served by the warm fallback, the feed itself succeeds, and other sessions
// are untouched.
func TestSessionFaultDegradesToFallback(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.Guard = prefetch.GuardConfig{MaxViolations: 1}
	cfg.Injector = resilience.NewInjector(1).
		Arm(resilience.PointServeSession, resilience.KindPanic, 2)
	srv := mustServer(t, cfg)

	got := collect(t, srv, "victim", evs(4))
	if len(got) != 4 {
		t.Fatalf("got %d predictions, want 4", len(got))
	}
	first := evs(4)[0].Addr>>6 + 1
	if got[0].Blocks[0] != first {
		t.Fatalf("healthy access served %v, want primary block %d", got[0].Blocks, first)
	}
	for i := 1; i < 4; i++ {
		if got[i].Blocks[0] != 9000 {
			t.Fatalf("access %d after fault served %v, want fallback block 9000", i, got[i].Blocks)
		}
	}
	if st := srv.Stats(); st.Degraded != 1 || st.FeedErrors != 0 {
		t.Fatalf("stats = %+v, want 1 degraded session and no feed errors", st)
	}
	if cfg.Events.Count("prefetch/echo", "quarantine") != 1 {
		t.Fatalf("events = %v, want one quarantine", cfg.Events.Events())
	}

	// Degradation is per-session: a fresh session runs on its own healthy
	// primary (the injector's once-arm has already fired).
	clean := collect(t, srv, "bystander", evs(2))
	for i, p := range clean {
		if p.Blocks[0] == 9000 {
			t.Fatalf("bystander access %d degraded: %+v", i, p)
		}
	}
	if st := srv.Stats(); st.Degraded != 1 {
		t.Fatalf("stats = %+v, want still exactly 1 degraded session", st)
	}
}

// TestFlushFaultFailsRequestOnly: a fault at the stream-flush boundary
// fails that request before anything is emitted, and the session remains
// serviceable afterwards.
func TestFlushFaultFailsRequestOnly(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.FlushEvery = 4
	cfg.Injector = resilience.NewInjector(1).
		Arm(resilience.PointServeFlush, resilience.KindErr, 1)
	srv := mustServer(t, cfg)

	emitted := 0
	err := srv.Feed(context.Background(), "s", evs(4), func(Prediction) error {
		emitted++
		return nil
	})
	var ie *resilience.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("Feed under flush fault = %v, want injected error", err)
	}
	if emitted != 0 {
		t.Fatalf("emitted %d predictions from a failed flush, want 0", emitted)
	}
	// The chunk was consumed (at-most-once emission), the session lives on.
	if got := collect(t, srv, "s", evs(1)); got[0].Seq != 5 {
		t.Fatalf("post-fault seq = %d, want 5", got[0].Seq)
	}
	if st := srv.Stats(); st.FeedErrors != 1 {
		t.Fatalf("stats = %+v, want 1 feed error", st)
	}
}

// TestFeedBound: oversized feeds are rejected before touching the table.
func TestFeedBound(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.MaxEventsPerFeed = 8
	srv := mustServer(t, cfg)
	if err := srv.Feed(context.Background(), "s", evs(9), nil); err == nil {
		t.Fatal("oversized feed must be rejected")
	}
	if st := srv.Stats(); st.Admitted != 0 {
		t.Fatalf("stats = %+v, want no admission for a rejected feed", st)
	}
}

// waitForDraining polls until Shutdown has marked the server draining.
func waitForDraining(t *testing.T, srv *Server) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if srv.Stats().Draining {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never started draining")
}

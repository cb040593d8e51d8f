package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
)

// serveWorkload drives the HTTP daemon in process (httptest server around
// serve.NewHandler) with a closed loop: rc.clients client goroutines, each
// waiting for a request's full prediction stream before sending its next.
//
// The default form is the served feed — a few long-lived f32 sessions fed in
// 64-event chunks, so per-event costs dominate. With churn set it is 12-event
// one-shot sessions on an 8-slot table (even ids closed by DELETE, odd ids
// left for LRU eviction), so admission, eviction and session construction
// dominate instead.
type serveWorkload struct {
	churn bool

	fx     *mlFixture
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	ids []string
	// bodies[s] are session s's pre-encoded request bodies, in order; the
	// client's JSON encoding is not part of a request's latency.
	bodies  [][][]byte
	streams [][]serve.Event

	// tr is non-nil while a traced pass runs: new sessions then get the
	// instrumented MPGraph and requests a server-side span.
	tr    atomic.Pointer[tracer]
	mu    sync.Mutex
	timed []*timedPrefetcher
	sent  atomic.Int64
	first [][]byte // first pass's response bytes per session
}

// maxRetries bounds the retries of a request refused with 429 or 503.
const maxRetries = 20

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		_ = w.srv.Shutdown(context.Background()) // cannot fail: the background context never expires
	}
	// The HTTP server's connection goroutines wind down on their own time
	// and reach w through the handler until then; let go of the fixture
	// here, so that the next round's set-up does not find it still in
	// memory (peak_rss_mb read 13 MB more whenever it did).
	*w = serveWorkload{churn: w.churn}
}

func (w *serveWorkload) maxSessions() int {
	if w.churn {
		return 8
	}
	return 64
}

func (w *serveWorkload) config(newPrimary func(core.ModelScheduler) (sim.Prefetcher, error)) serve.Config {
	return serve.Config{MaxSessions: w.maxSessions(), NewPrimary: newPrimary, Events: w.fx.r.Events}
}

func (w *serveWorkload) setup(rc *runCtx) error {
	fx, err := newMLFixture(mlOptions(rc.sc, "f32", 0), rc.seed)
	if err != nil {
		return err
	}
	w.fx = fx
	if w.srv, err = serve.New(w.config(w.newPrimary)); err != nil {
		return err
	}
	inner := serve.NewHandler(w.srv)
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if tr := w.tr.Load(); tr != nil {
			tracedHandler{inner: inner, tr: tr}.ServeHTTP(rw, r)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	w.client = w.ts.Client()
	if t, ok := w.client.Transport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = rc.clients // one kept-alive connection per client
	}

	sessions, events, chunk := rc.sc.serveSessions, rc.sc.serveEvents, chunkEvents
	if w.churn {
		sessions, events, chunk = rc.sc.churnSessions, churnEvents, churnEvents
	}
	for s, stream := range fx.streams(rc.seed, sessions, events) {
		var bodies [][]byte
		for lo := 0; lo < len(stream); lo += chunk {
			body, err := encodeEvents(stream[lo:min(lo+chunk, len(stream))])
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
		w.ids = append(w.ids, "s"+strconv.Itoa(s))
		w.bodies = append(w.bodies, bodies)
		w.streams = append(w.streams, stream)
	}

	// Warm-up: one request through the whole path, then close its session.
	if _, _, err := w.post(nil, 0, "warm", w.bodies[0][0], min(chunk, events)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return w.del(nil, 0, "warm", http.StatusNoContent)
}

// encodeEvents renders a request body: one JSON event per line.
func encodeEvents(events []serve.Event) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// newPrimary is serve.Config.NewPrimary: the production MPGraph, or its
// instrumented twin while a traced pass runs.
func (w *serveWorkload) newPrimary(sched core.ModelScheduler) (sim.Prefetcher, error) {
	tr := w.tr.Load()
	if tr == nil {
		return w.fx.primary(sched)
	}
	tp, err := w.fx.tracedPrimary("f32", sched, false)
	if err != nil {
		return nil, err
	}
	tp.now, tp.p.opened = tr.now, tr.now()
	w.mu.Lock()
	w.timed = append(w.timed, tp)
	w.mu.Unlock()
	return tp, nil
}

// post sends one request body to session id and reads the whole prediction
// stream. It returns the stream and the latency from write to last byte in
// ms. A 429/503 still refused after maxRetries, any other non-200, a
// transport error or a truncated stream (the server's error trailer) is an
// error.
func (w *serveWorkload) post(tr *tracer, parent uint64, id string, body []byte, events int) ([]byte, float64, error) {
	url := w.ts.URL + "/v1/sessions/" + id + "/events"
	status := 0
	for try := 0; try <= maxRetries; try++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		sp := tr.start("request", parent, 0)
		if sp != nil {
			sp.s.Req = sp.s.ID
			req.Header.Set(reqHeader, strconv.FormatUint(sp.s.ID, 10))
		}
		t0 := time.Now()
		resp, err := w.client.Do(req)
		if err != nil {
			sp.end()
			return nil, 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		sp.end()
		status = resp.StatusCode
		switch {
		case err != nil:
			return nil, 0, fmt.Errorf("POST %s: reading predictions: %w", id, err)
		case status == http.StatusOK:
			if i := bytes.Index(data, []byte(`{"error":`)); i >= 0 {
				return nil, 0, fmt.Errorf("POST %s: truncated stream: %s", id, bytes.TrimSpace(data[i:]))
			}
			w.sent.Add(int64(events))
			return data, ms, nil
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			time.Sleep(5 * time.Millisecond)
		default:
			return nil, 0, fmt.Errorf("POST %s: HTTP %d: %s", id, status, bytes.TrimSpace(data))
		}
	}
	return nil, 0, fmt.Errorf("POST %s: still HTTP %d after %d retries", id, status, maxRetries)
}

// del closes session id; a transport error, or any status but want (0 =
// either of the API's answers, 204 or 404) is an error.
func (w *serveWorkload) del(tr *tracer, parent uint64, id string, want int) error {
	req, err := http.NewRequest(http.MethodDelete, w.ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	sp := tr.start("request", parent, 0)
	if sp != nil {
		sp.s.Req = sp.s.ID
		req.Header.Set(reqHeader, strconv.FormatUint(sp.s.ID, 10))
	}
	defer sp.end()
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused; the status is the result
	resp.Body.Close()
	if st := resp.StatusCode; st != want && (want != 0 || (st != http.StatusNoContent && st != http.StatusNotFound)) {
		return fmt.Errorf("DELETE %s: HTTP %d", id, st)
	}
	return nil
}

func (w *serveWorkload) pass(rc *runCtx, tr *tracer) (passResult, error) {
	var res passResult
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	w.mu.Lock()
	w.timed = nil
	w.mu.Unlock()

	out := make([][]byte, len(w.ids))
	type tally struct {
		lane              lane
		attempted, failed int
		events            int
		firstErr          error
	}
	fail := func(t *tally, err error) {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	tallies := make([]tally, rc.clients)
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	// blockLen requests are about 45 ms of a client's work.
	blockLen := 4
	if w.churn {
		blockLen = 100
	}
	passSpan := tr.start("pass", 0, 0)
	res.wallS = timedMS(func() {
		var wg sync.WaitGroup
		for c := 0; c < rc.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t := &tallies[c]
				t.lane.start()
				// A lap is a block of blockLen requests — long enough that the
				// other clients are at work throughout it, so what the clients
				// cost each other is in its time — and carries the latency of
				// each of its requests, from write to last prediction byte.
				var block []float64
				send := func(s, j int) {
					events := min(len(w.streams[s])-j*chunkEvents, chunkEvents)
					t.attempted++
					data, ms, err := w.post(tr, passSpan.id(), w.ids[s], w.bodies[s][j], events)
					if err != nil {
						fail(t, err)
						return
					}
					out[s] = append(out[s], data...)
					t.events += events
					if block = append(block, ms); len(block) == blockLen {
						t.lane.lap(-1, block)
						block = nil
					}
				}
				defer func() { t.lane.lap(-1, block) }()
				if w.churn {
					// A contiguous block of ids per client, so each client
					// both closes (even ids) and abandons (odd ids) sessions.
					// A DELETE may find its session already evicted — eight
					// admissions by other clients can land between a POST
					// and its DELETE — so 404 is not asked about here.
					n := len(w.ids)
					for s := c * n / rc.clients; s < (c+1)*n/rc.clients; s++ {
						send(s, 0)
						if s%2 == 0 {
							t.attempted++
							if err := w.del(tr, passSpan.id(), w.ids[s], 0); err != nil {
								fail(t, err)
							}
						}
					}
					return
				}
				// Long-lived sessions: the client's sessions advance together,
				// one chunk each in turn.
				for j := range w.bodies[0] {
					for s := c; s < len(w.ids); s += rc.clients {
						send(s, j)
					}
				}
			}(c)
		}
		wg.Wait()
	}) / 1e3
	passSpan.end()
	if tr != nil {
		runtime.ReadMemStats(&after)
		res.mallocs = after.Mallocs - before.Mallocs
	}
	for i := range tallies {
		t := &tallies[i]
		res.lanes = append(res.lanes, &t.lane)
		res.opsMS = append(res.opsMS, t.lane.ops()...)
		res.attempted += t.attempted
		res.failed += t.failed
		res.events += t.events
		res.checks = append(res.checks, checkf("no request failed", t.firstErr == nil, "%d failed, first: %v", t.failed, t.firstErr))
	}

	// Untimed: close what the pass left open, so every pass starts from an
	// empty session table and repeats the same work. Evicted or already
	// closed ids answer 404.
	for s := len(w.ids) - 1; s >= 0 && w.srv.Stats().ActiveSessions > 0; s-- {
		if !w.churn || s%2 == 1 {
			if err := w.del(nil, 0, w.ids[s], 0); err != nil {
				return res, err
			}
		}
	}
	st := w.srv.Stats()
	res.stats = &st
	res.checks = append(res.checks, checkf("session table empty between passes", st.ActiveSessions == 0, "%d sessions left", st.ActiveSessions))

	h := sha256.New()
	for _, b := range out {
		h.Write(b)
	}
	res.digest = hex.EncodeToString(h.Sum(nil))[:16]
	if w.first == nil {
		w.first = out
	}
	w.mu.Lock()
	for _, tp := range w.timed {
		tr.record("session", passSpan.id(), tp.p.opened, max(tp.p.lastLeave, tp.p.opened), tp.p.aggs())
		res.probes = append(res.probes, tp.p)
		res.transitions += tp.mp.Transitions
	}
	w.mu.Unlock()
	return res, nil
}

// verify replays (a prefix of) the first pass's sessions in process and
// compares bytes, reads /v1/stats over HTTP, and simulates the f32 MPGraph.
func (w *serveWorkload) verify(first passResult) (quality, []check, error) {
	var checks []check

	// Reference: the same events through a fresh server via serve.Replay,
	// one feed per session. For churn a 200-session prefix keeps it short.
	n := min(len(w.ids), 200)
	var log, want bytes.Buffer
	enc := json.NewEncoder(&log)
	for s := 0; s < n; s++ {
		for _, ev := range w.streams[s] {
			if err := enc.Encode(serve.ReplayRecord{Session: w.ids[s], Addr: ev.Addr, PC: ev.PC, Core: ev.Core}); err != nil {
				return quality{}, nil, err
			}
		}
		want.Write(w.first[s])
	}
	ref, err := serve.New(w.config(w.fx.primary))
	if err != nil {
		return quality{}, nil, err
	}
	var got bytes.Buffer
	if err := serve.Replay(context.Background(), ref, &log, &got, 1); err != nil {
		return quality{}, nil, fmt.Errorf("reference replay: %w", err)
	}
	checks = append(checks, checkf("HTTP prediction bytes == in-process serve.Replay", bytes.Equal(got.Bytes(), want.Bytes()),
		"%d sessions: HTTP returned %d bytes, replay %d", n, want.Len(), got.Len()))

	resp, err := w.client.Get(w.ts.URL + "/v1/stats")
	if err != nil {
		return quality{}, nil, err
	}
	var st serve.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return quality{}, nil, fmt.Errorf("/v1/stats: %w", err)
	}
	checks = append(checks,
		checkf("/v1/stats events == events sent", st.Events == uint64(w.sent.Load()), "stats %d, sent %d", st.Events, w.sent.Load()),
		checkf("/v1/stats feed_errors == 0", st.FeedErrors == 0, "%d feed errors", st.FeedErrors),
		checkf("no session degraded", st.Degraded == 0, "%d degraded", st.Degraded))

	m, more, err := subjectQuality(w.fx)
	if err != nil {
		return quality{}, nil, err
	}
	return qualityOf(m, w.fx.baseline), append(checks, more...), nil
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postEvents POSTs a JSONL-encoded event stream for a session.
func postEvents(t *testing.T, base, id string, events []Event) *http.Response {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(base+"/v1/sessions/"+id+"/events", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, r io.Reader) []Prediction {
	t.Helper()
	dec := json.NewDecoder(r)
	var out []Prediction
	for {
		var p Prediction
		if err := dec.Decode(&p); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("decoding prediction stream: %v", err)
		}
		out = append(out, p)
	}
}

// TestHTTPFeedStream: a feed round-trips as a streamed JSONL response with
// the documented content type and ordered sequence numbers.
func TestHTTPFeedStream(t *testing.T) {
	srv := mustServer(t, stubConfig(echoPF))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	resp := postEvents(t, ts.URL, "web-1", evs(5))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	preds := decodeBody(t, resp.Body)
	if len(preds) != 5 {
		t.Fatalf("got %d predictions, want 5", len(preds))
	}
	for i, p := range preds {
		if p.Session != "web-1" || p.Seq != uint64(i+1) {
			t.Fatalf("prediction %d = %+v", i, p)
		}
	}
}

// TestHTTPSaturation: with the table full of busy sessions a new session
// gets 429 plus the Retry-After backoff hint.
func TestHTTPSaturation(t *testing.T) {
	h := newBlockingHarness()
	cfg := stubConfig(h.primary("hog"))
	cfg.MaxSessions = 1
	cfg.RetryAfter = 7
	srv := mustServer(t, cfg)
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postEvents(t, ts.URL, "hog", evs(2))
		io.Copy(io.Discard, resp.Body) //mpgraph:allow errdrop -- draining a test response
		resp.Body.Close()
	}()
	<-h.started

	resp := postEvents(t, ts.URL, "late", evs(1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}
	// A concurrent feed to the busy session conflicts.
	resp2 := postEvents(t, ts.URL, "hog", evs(1))
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("busy-session status = %d, want 409", resp2.StatusCode)
	}
	close(h.release)
	<-done
}

// TestHTTPCloseAndStats: DELETE lifecycle plus the stats and health probes.
func TestHTTPCloseAndStats(t *testing.T) {
	srv := mustServer(t, stubConfig(echoPF))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	resp := postEvents(t, ts.URL, "s", evs(2))
	io.Copy(io.Discard, resp.Body) //mpgraph:allow errdrop -- draining a test response
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/s", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", del.StatusCode)
	}
	del2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del2.Body.Close()
	if del2.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", del2.StatusCode)
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admitted != 1 || stats.Closed != 1 || stats.Events != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	body, _ := io.ReadAll(hz.Body)
	if hz.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q", hz.StatusCode, body)
	}
}

// TestHTTPBadInput: malformed event streams and oversized feeds are 400s.
func TestHTTPBadInput(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.MaxEventsPerFeed = 4
	srv := mustServer(t, cfg)
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions/s/events", "application/x-ndjson",
		strings.NewReader(`{"addr": "not a number"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}

	over := postEvents(t, ts.URL, "s", evs(5))
	over.Body.Close()
	if over.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized feed = %d, want 400", over.StatusCode)
	}
}

// TestHTTPOversizedBody: a body over the byte bound is cut off with 413 even
// when it is a single JSON token the event-count bound never sees; no session
// is admitted and no feed is counted.
func TestHTTPOversizedBody(t *testing.T) {
	cfg := stubConfig(echoPF)
	cfg.MaxEventsPerFeed = 4
	srv := mustServer(t, cfg)
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	before := srv.Stats()
	token := `{"addr":` + strings.Repeat("1", 4*maxEventBytes)
	resp, err := http.Post(ts.URL+"/v1/sessions/big/events", "application/x-ndjson", strings.NewReader(token))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized single-token body = %d, want 413", resp.StatusCode)
	}
	if after := srv.Stats(); after != before {
		t.Fatalf("rejected body changed the server: %+v -> %+v", before, after)
	}

	// The bound is on bytes, not on shape: a full-size feed of canonical
	// events still fits.
	ok := postEvents(t, ts.URL, "fits", []Event{
		{Addr: 1<<64 - 1, PC: 1<<64 - 1, Core: 255}, {Addr: 1<<64 - 1, PC: 1<<64 - 1, Core: 255},
		{Addr: 1<<64 - 1, PC: 1<<64 - 1, Core: 255}, {Addr: 1<<64 - 1, PC: 1<<64 - 1, Core: 255},
	})
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("full feed of maximal events = %d, want 200", ok.StatusCode)
	}
	if st := srv.Stats(); st.Feeds != 1 || st.FeedErrors != 0 || st.Admitted != 1 {
		t.Fatalf("stats after the accepted feed = %+v", st)
	}
}

// TestHTTPDrainingRejects: after Shutdown begins, feeds get 503 with a
// Retry-After hint (load balancers treat it as a backend rotation signal).
func TestHTTPDrainingRejects(t *testing.T) {
	h := newBlockingHarness()
	cfg := stubConfig(h.primary("s"))
	srv := mustServer(t, cfg)
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postEvents(t, ts.URL, "s", evs(2))
		io.Copy(io.Discard, resp.Body) //mpgraph:allow errdrop -- draining a test response
		resp.Body.Close()
	}()
	<-h.started
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := contextWithTestTimeout()
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	waitForDraining(t, srv)

	resp := postEvents(t, ts.URL, "other", evs(1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining rejection must carry Retry-After")
	}
	close(h.release)
	<-done
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

func contextWithTestTimeout() (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

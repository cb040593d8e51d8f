package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardFlusher is a ResponseWriter that keeps nothing.
type discardFlusher struct{ h http.Header }

func (d *discardFlusher) Header() http.Header         { return d.h }
func (d *discardFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardFlusher) WriteHeader(int)             {}
func (d *discardFlusher) Flush()                      {}

// BenchmarkHandleFeed is one 64-event chunk (the default FlushEvery) per op
// through NewHandler, on a warm session of the real, untrained AMMA MPGraph
// with its Soft-KSWIN detector: the event decode, the chunk's Operates, and
// the chunk's encode, write and flush. The requests are built once and their
// bodies rewound, so allocs/op is the handler's own.
func BenchmarkHandleFeed(b *testing.B) {
	const chunk, chunks = 64, 16
	h := NewHandler(mustServer(b, ammaConfig(b, 0)))
	events := sessionEvents(3000, 0, chunk*chunks)
	bodies := make([][]byte, chunks)
	for i := range bodies {
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for _, ev := range events[i*chunk : (i+1)*chunk] {
			if err := enc.Encode(ev); err != nil {
				b.Fatal(err)
			}
		}
		bodies[i] = body.Bytes()
	}
	body := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/v1/sessions/bench/events", io.NopCloser(body))
	if err != nil {
		b.Fatal(err)
	}
	w := &discardFlusher{h: http.Header{}}
	post := func(i int) {
		body.Reset(bodies[i%chunks])
		h.ServeHTTP(w, req)
	}
	// Warm: the detector's window and the model history fill in the first
	// few hundred events; the last warm chunk's answer is checked.
	for i := 0; i < chunks-1; i++ {
		post(i)
	}
	rec := httptest.NewRecorder()
	body.Reset(bodies[chunks-1])
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 || bytes.Contains(rec.Body.Bytes(), []byte(`{"error":`)) {
		b.Fatalf("warm chunk: status %d, body %q", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
}

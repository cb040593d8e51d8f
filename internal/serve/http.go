package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// NewHandler exposes srv over HTTP (Go 1.22 pattern routing):
//
//	POST   /v1/sessions/{id}/events  — body: JSONL of Event; response: a
//	        JSONL stream of Prediction, flushed at every chunk boundary.
//	DELETE /v1/sessions/{id}         — close the session (204 / 404).
//	GET    /v1/stats                 — server counters as JSON.
//	GET    /healthz                  — liveness probe ("ok").
//
// Status mapping: 429 + Retry-After when the session table is saturated,
// 503 + Retry-After while draining or when admission itself faulted, 409
// when the session is already serving a feed, 400 on malformed input, 413
// when a feed's body exceeds its byte bound (MaxEventsPerFeed × maxEventBytes).
// Every feed runs under Config.RequestTimeout; the deadline propagates
// through the session's model calls, so a timed-out request yields a
// truncated (but well-formed) prediction stream and a trailing error line.
func NewHandler(srv *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions/{id}/events", srv.handleFeed)
	mux.HandleFunc("DELETE /v1/sessions/{id}", srv.handleClose)
	mux.HandleFunc("GET /v1/stats", srv.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxEventBytes is the request bytes one event may take. A canonical event —
// maximal addr, pc and core, with its newline — is 67 bytes; 128 leaves room
// for whitespace and field reordering. The event-count bound alone does not
// bound a feed: one never-ending JSON string or number is read in full before
// any count applies.
const maxEventBytes = 128

// handleFeed decodes the request's event stream and streams predictions
// back as JSONL.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		http.Error(w, "serve: empty session id", http.StatusBadRequest)
		return
	}
	body := http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxEventsPerFeed)*maxEventBytes)
	events, err := decodeEvents(body, s.cfg.MaxEventsPerFeed)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streaming := false
	feedErr := s.Feed(ctx, id, events, func(p Prediction) error {
		if !streaming {
			// First prediction commits the 200 streaming response.
			w.Header().Set("Content-Type", "application/x-ndjson")
			streaming = true
		}
		if err := enc.Encode(p); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if feedErr == nil {
		if !streaming {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		return
	}
	if streaming {
		// Headers are gone; append a well-formed trailer line so the client
		// can distinguish truncation from completion.
		enc.Encode(map[string]string{"error": feedErr.Error()}) //mpgraph:allow errdrop -- best-effort trailer on an already-failed stream; the connection may be gone
		return
	}
	status, retry := statusFor(feedErr)
	if retry {
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
	}
	http.Error(w, feedErr.Error(), status)
}

// handleClose removes a session.
func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if s.Close(r.PathValue("id")) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	http.Error(w, "serve: unknown session", http.StatusNotFound)
}

// handleStats reports the server counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats()) //mpgraph:allow errdrop -- an encode failure here means the client hung up; nothing to report to
}

// statusFor maps feed errors to HTTP statuses and whether a Retry-After
// hint applies.
func statusFor(err error) (status int, retryable bool) {
	var admit *AdmissionError
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests, true
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, ErrSessionBusy):
		return http.StatusConflict, false
	case errors.As(err, &admit):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, false
	}
	return http.StatusInternalServerError, false
}

// decodeEvents reads a JSONL (or whitespace-separated JSON) stream of
// Events, enforcing the per-feed bound.
func decodeEvents(r io.Reader, limit int) ([]Event, error) {
	dec := json.NewDecoder(r)
	var events []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("serve: bad event at index %d: %w", len(events), err)
		}
		events = append(events, ev)
		if len(events) > limit {
			return nil, fmt.Errorf("serve: feed exceeds the %d-event bound", limit)
		}
	}
}

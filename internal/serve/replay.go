package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"mpgraph/internal/resilience"
)

// ReplayRecord is one line of a replay trace: a demand access tagged with
// the session it belongs to.
type ReplayRecord struct {
	Session string `json:"session"`
	Addr    uint64 `json:"addr"`
	PC      uint64 `json:"pc"`
	Core    uint8  `json:"core"`
}

// Replay feeds a JSONL trace of ReplayRecords through srv and writes the
// resulting prediction log as JSONL to out. The log is byte-identical for
// any parallelism, batch size, and scheduler interleaving, extending the
// sweep's determinism contract to the serving path:
//
//   - each session's full event stream runs as one Feed, so its predictions
//     are a pure function of its own stream (the batched kernels are
//     composition-independent, and a busy session can never be evicted
//     mid-stream);
//   - the log is assembled after the fact: sessions in first-appearance
//     order, each session's predictions in sequence order.
//
// parallel bounds concurrently-fed sessions (0 = min(sessions,
// MaxSessions); higher values are clamped to MaxSessions so admission can
// never reject: at most MaxSessions sessions are busy or freshly idle at
// once, and finished sessions are evictable). An injector armed on the
// serve points makes replay non-deterministic, as injected faults suppress
// predictions; deterministic replay is for fault-free verification runs.
func Replay(ctx context.Context, srv *Server, in io.Reader, out io.Writer, parallel int) error {
	order, streams, err := loadReplay(in, srv.cfg.MaxEventsPerFeed)
	if err != nil {
		return err
	}
	if parallel <= 0 || parallel > srv.cfg.MaxSessions {
		parallel = srv.cfg.MaxSessions
	}
	if parallel > len(order) {
		parallel = len(order)
	}

	outs := make([][]Prediction, len(order))
	errs := make([]error, len(order))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, id := range order {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = resilience.Guard("serve.replay/"+id, func() error {
				return srv.Feed(ctx, id, streams[id], func(p Prediction) error {
					outs[i] = append(outs[i], p)
					return nil
				})
			})
		}(i, id)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("serve: replaying session %q: %w", order[i], err)
		}
	}
	var buf []byte
	for i, preds := range outs {
		head := predictionHead(order[i])
		buf = buf[:0]
		for _, p := range preds {
			buf = appendPrediction(buf, head, p)
		}
		if _, err := out.Write(buf); err != nil {
			return fmt.Errorf("serve: writing replay log: %w", err)
		}
	}
	return nil
}

// loadReplay decodes the trace, grouping events per session while
// preserving the sessions' first-appearance order and each session's event
// order.
func loadReplay(in io.Reader, perSessionLimit int) (order []string, streams map[string][]Event, err error) {
	dec := json.NewDecoder(in)
	streams = map[string][]Event{}
	n := 0
	for {
		var rec ReplayRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("serve: bad replay record at index %d: %w", n, err)
		}
		n++
		if rec.Session == "" {
			return nil, nil, fmt.Errorf("serve: replay record %d has no session", n-1)
		}
		if _, seen := streams[rec.Session]; !seen {
			order = append(order, rec.Session)
		}
		streams[rec.Session] = append(streams[rec.Session], Event{Addr: rec.Addr, PC: rec.PC, Core: rec.Core})
		if len(streams[rec.Session]) > perSessionLimit {
			return nil, nil, fmt.Errorf("serve: session %q exceeds the %d-event replay bound (raise -max-feed-events)", rec.Session, perSessionLimit)
		}
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("serve: empty replay trace")
	}
	return order, streams, nil
}

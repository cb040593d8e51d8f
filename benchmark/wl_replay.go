package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"mpgraph/internal/core"
	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
)

// replayParallel is the number of sessions serve.Replay feeds at once; with
// Batch=8 it lets every fused round fill.
const replayParallel = 8

// replayWorkload is the offline batch mode: one generated JSONL log replayed
// through an int8 server whose sessions share a Batch=8 scheduler. The load
// is a single buffer handed over by one goroutine; the feeders are the
// program's own. Every pass uses a fresh Server.
type replayWorkload struct {
	fx       *mlFixture
	log      []byte
	sessions int
	events   int
}

func (w *replayWorkload) close() {}

// replayLog renders sessions × events records, interleaved event by event as
// a live capture would be.
func replayLog(fx *mlFixture, seed int64, sessions, events int) ([]byte, error) {
	streams := fx.streams(seed, sessions, events)
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := 0; i < events; i++ {
		for s := range streams {
			ev := streams[s][i]
			if err := enc.Encode(serve.ReplayRecord{Session: "r" + strconv.Itoa(s), Addr: ev.Addr, PC: ev.PC, Core: ev.Core}); err != nil {
				return nil, err
			}
		}
	}
	return b.Bytes(), nil
}

func (w *replayWorkload) setup(rc *runCtx) error {
	fx, err := newMLFixture(mlOptions(rc.sc, "int8", 8), rc.seed)
	if err != nil {
		return err
	}
	w.fx, w.sessions, w.events = fx, rc.sc.replaySessions, rc.sc.replayEvents
	if w.log, err = replayLog(fx, rc.seed, w.sessions, w.events); err != nil {
		return err
	}
	// Warm-up: a two-session log through the same path.
	warm, err := replayLog(fx, rc.seed, 2, chunkEvents)
	if err != nil {
		return err
	}
	_, _, err = w.replay(nil, 0, warm, 2, nil)
	return err
}

// replay runs log through a fresh server and returns the output's digest
// and the server's final counters. With a tracer, sessions get the
// instrumented MPGraph and timed collects them.
func (w *replayWorkload) replay(tr *tracer, parent uint64, log []byte, parallel int, timed *[]*timedPrefetcher) (string, serve.Stats, error) {
	var mu sync.Mutex
	srv, err := serve.New(serve.Config{
		MaxSessions: 64,
		NewPrimary: func(sched core.ModelScheduler) (sim.Prefetcher, error) {
			if tr == nil {
				return w.fx.primary(sched)
			}
			tp, err := w.fx.tracedPrimary("int8", sched, false)
			if err != nil {
				return nil, err
			}
			tp.now, tp.p.opened = tr.now, tr.now()
			mu.Lock()
			*timed = append(*timed, tp)
			mu.Unlock()
			return tp, nil
		},
		NewModelSession: w.fx.r.NewModelSession,
		Events:          w.fx.r.Events,
	})
	if err != nil {
		return "", serve.Stats{}, err
	}
	var out bytes.Buffer
	err = serve.Replay(context.Background(), srv, bytes.NewReader(log), &out, parallel)
	st := srv.Stats()
	_ = srv.Shutdown(context.Background()) // cannot fail: the background context never expires
	if err != nil {
		return "", st, err
	}
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:])[:16], st, nil
}

func (w *replayWorkload) pass(rc *runCtx, tr *tracer) (passResult, error) {
	res := passResult{attempted: w.sessions}
	var timed []*timedPrefetcher
	var st serve.Stats
	var err error
	l := &lane{}
	res.lanes = []*lane{l}
	passSpan := tr.start("pass", 0, 0)
	sp := tr.start("replay", passSpan.id(), 0)
	l.start()
	res.digest, st, err = w.replay(tr, sp.id(), w.log, replayParallel, &timed)
	l.lap(0, nil)
	sp.end()
	passSpan.end()
	ms := l.laps[0].ms
	res.wallS = ms / 1e3
	if err != nil {
		res.failed = w.sessions
		return res, err
	}
	res.opsMS = []float64{ms}
	res.events = w.sessions * w.events
	res.stats = &st
	res.checks = []check{
		checkf("server events == events replayed", st.Events == uint64(res.events), "stats %d, log %d", st.Events, res.events),
		checkf("server feed_errors == 0", st.FeedErrors == 0, "%d feed errors", st.FeedErrors),
		checkf("no session degraded", st.Degraded == 0, "%d degraded", st.Degraded),
	}
	for _, tp := range timed {
		tr.record("replay.session", sp.id(), tp.p.opened, max(tp.p.lastLeave, tp.p.opened), tp.p.aggs())
		res.probes = append(res.probes, tp.p)
		res.transitions += tp.mp.Transitions
	}
	return res, nil
}

// verify replays the log serially — the output must not depend on
// parallelism or round composition — and simulates the int8 MPGraph.
func (w *replayWorkload) verify(first passResult) (quality, []check, error) {
	serial, _, err := w.replay(nil, 0, w.log, 1, nil)
	if err != nil {
		return quality{}, nil, fmt.Errorf("parallel=1 reference: %w", err)
	}
	checks := []check{checkf("replay output == parallel=1 reference", serial == first.digest, "parallel=%d %s, parallel=1 %s", replayParallel, first.digest, serial)}
	m, more, err := subjectQuality(w.fx)
	if err != nil {
		return quality{}, nil, err
	}
	return qualityOf(m, w.fx.baseline), append(checks, more...), nil
}

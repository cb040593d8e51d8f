package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// runCtx is what a run hands its workload.
type runCtx struct {
	seed    int64
	seconds float64
	sc      scale
	// clients is the number of load-generating goroutines/connections:
	// min(nproc, 4), all in this process.
	clients int
	outDir  string
}

// lane is one goroutine's share of a pass, cut into consecutive laps: start,
// then one lap call after each piece of work. The laps tile the lane, so
// their sum is its wall time. Every pass of a run does the same work in the
// same order, so lap i of one pass is the same work as lap i of another —
// which is what lets a run keep, lap by lap, the fastest instance it saw
// (floorPass). A lap is a few tens of milliseconds of work: a segment of a
// simulation, or a block of requests.
type lane struct {
	last time.Time
	laps []lap
}

type lap struct {
	ms float64
	// op is the index, within the lane, of the unit operation the lap is a
	// part of (a simulation takes several laps), or -1.
	op int
	// opsMS are the latencies of the unit operations that ran within the lap
	// (a block of requests is one lap).
	opsMS []float64
}

func (l *lane) start() { l.last = time.Now() }

// lap closes the piece of work begun at the previous lap (or start), a part
// of operation op (-1: of none) within which the operations of opsMS ran.
func (l *lane) lap(op int, opsMS []float64) {
	now := time.Now()
	l.laps = append(l.laps, lap{ms: float64(now.Sub(l.last).Nanoseconds()) / 1e6, op: op, opsMS: opsMS})
	l.last = now
}

// ops returns one latency per unit operation of the lane: the sum of its
// laps, or as it was measured within its lap.
func (l *lane) ops() []float64 {
	var whole, within []float64
	for _, lp := range l.laps {
		within = append(within, lp.opsMS...)
		if lp.op >= 0 {
			for len(whole) <= lp.op {
				whole = append(whole, 0)
			}
			whole[lp.op] += lp.ms
		}
	}
	return append(whole, within...)
}

// runLaps is Engine.Run with a lap of operation op after every segment
// accesses.
func runLaps(eng *sim.Engine, accesses []trace.Access, l *lane, op, segment int) sim.Metrics {
	var m sim.Metrics
	for lo, n := 0, len(accesses); lo < n; lo += segment {
		hi := min(lo+segment, n)
		for i := lo; i < hi; i++ {
			eng.Step(accesses[i])
		}
		if hi == n {
			m = eng.Finish()
		}
		l.lap(op, nil)
	}
	return m
}

// passResult is one measured pass.
type passResult struct {
	wallS  float64
	events int
	// lanes are the pass's laps: one lane for the serial workloads, one per
	// client for the served ones.
	lanes []*lane
	// opsMS holds one latency per unit operation (see endToEnd), in lane
	// order.
	opsMS             []float64
	attempted, failed int
	// digest fingerprints the pass's outputs (every sim.Metrics, or the
	// prediction bytes); it must repeat exactly across the passes of a run,
	// traced or not.
	digest string
	// sims are the pass's simulation results, for the definition checks.
	sims []sim.Metrics
	// checks are output checks the pass itself evaluated.
	checks []check

	// Filled by traced passes only.
	probes      []*opProbe
	transitions int
	mallocs     uint64
	stats       *serve.Stats
}

// check is one output check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// workload is one of the five benchmark workloads. A value is used for one
// set-up: setup builds a fresh fixture (fresh experiments.Runner where the
// workload has one) and runs a short warm-up through the measured path, so
// setup_s is the time from nothing to the first measured pass.
type workload interface {
	setup(rc *runCtx) error
	// pass runs one pass; tr is nil for the untraced run.
	pass(rc *runCtx, tr *tracer) (passResult, error)
	// verify runs the output checks that need more than the passes
	// themselves and returns the subject prefetcher's simulated quality.
	verify(first passResult) (quality, []check, error)
	close()
}

// timedMS runs f and returns its wall time in milliseconds.
func timedMS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// degreeProbe wraps pf in a decorator that never samples a timer, to learn
// the largest prefetch set one Operate returned.
func degreeProbe(pf sim.Prefetcher) *timedPrefetcher {
	tp := newTimedPrefetcher(pf)
	tp.p.every = 1 << 62
	return tp
}

// subjectQuality simulates the fixture's production MPGraph (at the runner's
// precision tier) behind a degree probe, and checks the paper's definitions
// on it: accuracy and coverage in [0,1], issued degree within Ds·(Dt+1).
func subjectQuality(fx *mlFixture) (sim.Metrics, []check, error) {
	mp, err := fx.primary(nil)
	if err != nil {
		return sim.Metrics{}, nil, err
	}
	guarded := fx.guard(mp)
	dp := degreeProbe(guarded)
	m, err := fx.simulate(dp)
	if err != nil {
		return sim.Metrics{}, nil, err
	}
	err = checkRatios(m)
	return m, []check{
		checkf("accuracy and coverage in [0,1]", err == nil, "%v", err),
		checkf("mpgraph issued degree <= Ds*(Dt+1)", dp.p.maxDegree <= maxDegree(),
			"one Operate returned %d blocks, bound %d", dp.p.maxDegree, maxDegree()),
		checkf("mpgraph not quarantined", !guarded.Quarantined(), "%d guard violations", guarded.Violations()),
		checkf("mpgraph issues prefetches", m.PrefetchesIssued > 0, "no prefetch issued over %d accesses", len(fx.testRaw)),
	}, nil
}

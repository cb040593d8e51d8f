package main

import (
	"fmt"
	"time"

	"mpgraph/internal/sim"
)

// sweepWorkload is one sweep cell: the six-prefetcher comparison set of
// Runner.Prefetchers simulated over the workload's test trace on the f64
// fast path, unbatched. Prefetchers are stateful (they train online and keep
// PBOT/history), so every pass builds a fresh set.
type sweepWorkload struct {
	fx *mlFixture
}

func (w *sweepWorkload) close() {}

func (w *sweepWorkload) setup(rc *runCtx) error {
	fx, err := newMLFixture(mlOptions(rc.sc, "f64", 0), rc.seed)
	if err != nil {
		return err
	}
	w.fx = fx
	// Warm-up: every prefetcher of the set sees the head of the trace once.
	pfs, err := fx.r.Prefetchers(mlWorkload)
	if err != nil {
		return err
	}
	head := fx.testRaw[:min(len(fx.testRaw), 400)]
	for _, pf := range pfs {
		eng, err := sim.NewEngine(fx.opt.SimConfig(), pf)
		if err != nil {
			return err
		}
		eng.Run(head)
	}
	return nil
}

// sweepSegment is the number of raw accesses a simulation runs per lap.
const sweepSegment = 500

func (w *sweepWorkload) pass(rc *runCtx, tr *tracer) (passResult, error) {
	fx := w.fx
	l := &lane{}
	res := passResult{lanes: []*lane{l}}
	passSpan := tr.start("pass", 0, 0)
	t0 := time.Now()
	l.start()
	pfs, err := fx.r.Prefetchers(mlWorkload)
	if err != nil {
		return res, err
	}
	l.lap(-1, nil)
	for op, pf := range pfs {
		var timed *timedPrefetcher
		if tr != nil {
			if pf.Name() == "mpgraph" {
				if timed, err = fx.tracedPrimary("f64", nil, true); err != nil {
					return res, err
				}
			} else {
				timed = newTimedPrefetcher(pf)
			}
			pf = timed
		}
		res.attempted++
		sp := tr.start("sim.run", passSpan.id(), 0)
		eng, err := sim.NewEngine(fx.opt.SimConfig(), pf)
		if err != nil {
			return res, err
		}
		m := runLaps(eng, fx.testRaw, l, op, sweepSegment)
		if timed != nil {
			sp.end(timed.p.aggs()...)
			res.probes = append(res.probes, timed.p)
			if timed.mp != nil {
				res.transitions += timed.mp.Transitions
			}
		}
		res.sims = append(res.sims, m)
		// An event is one LLC demand access handed to a prefetcher: the
		// ML prefetchers' cost is per Operate call, and how many raw
		// accesses get as far as the LLC moves with the seed.
		res.events += int(m.LLCHits + m.LLCMisses)
	}
	res.wallS = time.Since(t0).Seconds()
	passSpan.end()
	res.opsMS = l.ops()
	res.digest = digestOf(res.sims)
	return res, nil
}

func (w *sweepWorkload) verify(first passResult) (quality, []check, error) {
	var checks []check
	var mp *sim.Metrics
	for i := range first.sims {
		err := checkRatios(first.sims[i])
		checks = append(checks, checkf("accuracy and coverage in [0,1]: "+first.sims[i].Prefetcher, err == nil, "%v", err))
		if first.sims[i].Prefetcher == "mpgraph" {
			mp = &first.sims[i]
		}
	}
	if mp == nil {
		return quality{}, nil, fmt.Errorf("sweep produced no mpgraph row")
	}
	// The same MPGraph behind the degree probe must reproduce the pass's
	// row: the probe (the timing decorator with its timer off) is
	// transparent, and the degree bound holds on every Operate.
	again, more, err := subjectQuality(w.fx)
	if err != nil {
		return quality{}, nil, err
	}
	checks = append(checks, more...)
	checks = append(checks, checkf("decorated mpgraph == bare mpgraph", again == *mp, "decorated %v, bare %v", again, *mp))
	return qualityOf(*mp, w.fx.baseline), checks, nil
}

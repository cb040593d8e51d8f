package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload produced.
type report struct {
	Env      envHeader `json:"env"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	// Passes is the number of measured passes; Samples the number of unit
	// operations behind op_p50_ms / op_p95_ms.
	Passes  int `json:"passes"`
	Samples int `json:"op_samples"`
	// FloorPassS is the wall time of the floor pass the host-time metrics
	// come from, BestPassS that of the fastest pass as it actually ran: how
	// far taking the floor lap by lap goes below a pass that happened.
	FloorPassS float64                `json:"floor_pass_s,omitempty"`
	BestPassS  float64                `json:"best_pass_s,omitempty"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Checks     []check                `json:"checks"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Stages is the traced run's stage-attribution table (shares of the
	// summed span self time of the traced passes).
	Stages map[string]float64 `json:"stages,omitempty"`
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// measure runs passes of w until the window is used up, at least minPasses.
func measure(rc *runCtx, w workload, tr *tracer, window float64, minPasses int) ([]passResult, error) {
	var passes []passResult
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < window {
		p, err := w.pass(rc, tr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// Host-time metrics are reported from the run's floor pass, not from its
// median pass. The shared two-vCPU hosts this runs on slow everything down by
// 20–40 % for anything from milliseconds to minutes at a time; that noise
// only ever adds time, so the fastest time a piece of work was seen to take
// is the one closest to the code's own cost (cmd/mpgraph-bench keeps the
// best of its -count repeats for the same reason). Every pass of a run does
// the same work in the same order, cut into the same laps (lane), so the
// floor is taken lap by lap: a slow spell has to cover the same lap in every
// pass to get into the result. Both sides of a comparison are treated alike.

// floorPass folds the passes into the run's floor pass — every lap as the
// pass that ran it fastest ran it — and returns that pass's wall time (the
// sum of a lane's laps; of the slowest lane where clients run side by side)
// and its latency per unit operation. Passes that did not do the same laps
// are an error: they did not do the same work.
func floorPass(passes []passResult) (wallS float64, opsMS []float64, err error) {
	for li, l := range passes[0].lanes {
		floor := lane{laps: slices.Clone(l.laps)}
		for pi, p := range passes[1:] {
			if len(p.lanes) != len(passes[0].lanes) || len(p.lanes[li].laps) != len(l.laps) {
				return 0, nil, fmt.Errorf("pass %d did not do the laps of pass 1", pi+2)
			}
			for i, lp := range p.lanes[li].laps {
				if lp.op != l.laps[i].op || len(lp.opsMS) != len(l.laps[i].opsMS) {
					return 0, nil, fmt.Errorf("pass %d did not do the laps of pass 1", pi+2)
				}
				if lp.ms < floor.laps[i].ms {
					floor.laps[i] = lp
				}
			}
		}
		sum := 0.0
		for _, lp := range floor.laps {
			sum += lp.ms
		}
		wallS = max(wallS, sum/1e3)
		opsMS = append(opsMS, floor.ops()...)
	}
	return wallS, opsMS, nil
}

// eventsPerS is the floor pass's events completed per second.
func eventsPerS(passes []passResult) (float64, error) {
	wallS, _, err := floorPass(passes)
	return float64(passes[0].events) / wallS, err
}

// collect folds the passes into the report: counts, the passes' own checks,
// and the repeat-exactly check on their digests.
func (r *report) collect(passes []passResult) {
	r.Passes += len(passes)
	var checks []check
	for i, p := range passes {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.Samples += len(p.opsMS)
		checks = append(checks, p.checks...)
		checks = append(checks, checkf("outputs of pass 1 == every later pass", p.digest == passes[0].digest,
			"pass %d digest %s, pass 1 %s", i+1, p.digest, passes[0].digest))
	}
	r.Checks = append(r.Checks, dedupe(checks)...)
}

func (r *report) set(spec []metricSpec, name string, v float64) {
	for _, m := range spec {
		if m.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name) // a bug in this package: every printed metric is declared in spec.go
}

// runUntraced is the end-to-end run: rounds of a fresh set-up followed by a
// share of the measuring window, tracing off, then the output checks. The
// rounds spread both the set-ups and the passes over the whole run, so a slow
// spell of the host shorter than the run cannot cover all of either; the
// fastest set-up counts, and the passes of all rounds make one floor pass —
// every fixture trains the same model and serves the same events, which the
// digest check pins.
func runUntraced(spec workloadSpec, rc *runCtx) (*report, error) {
	rep := &report{Env: readEnv(), Workload: spec.Name, Seed: rc.seed, Seconds: rc.seconds, Metrics: map[string]metricValue{}}

	var w workload
	var setups []float64
	var passes, last []passResult
	rounds := float64(rc.sc.rounds)
	for round := 0; round < rc.sc.rounds; round++ {
		// One set-up per round, and more while they are cheap: a 0.2 s
		// set-up (sim-classic) needs more tries than a 2.6 s one to show
		// its floor.
		for spent, n := 0.0, 0; n == 0 || (spent < 2/rounds && n < rc.sc.setupTries); n++ {
			if w != nil {
				w.close()
				w = nil
				runtime.GC() // the previous fixture is garbage; do not let it count against this set-up
			}
			w = spec.new()
			t0 := time.Now()
			if err := w.setup(rc); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			spent += setups[len(setups)-1]
		}
		var err error
		if last, err = measure(rc, w, nil, rc.seconds/rounds, (rc.sc.minPasses+rc.sc.rounds-1)/rc.sc.rounds); err != nil {
			w.close()
			return nil, err
		}
		passes = append(passes, last...)
	}
	defer w.close()
	rep.collect(passes)

	q, checks, err := w.verify(last[0])
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep.Checks = append(rep.Checks, dedupe(checks)...)

	rss := peakRSSMB()
	if rss == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rss = float64(ms.Sys) / (1 << 20)
	}
	wallS, opsMS, err := floorPass(passes)
	if err != nil {
		return nil, err
	}
	rep.FloorPassS, rep.BestPassS = wallS, math.Inf(1)
	for _, p := range passes {
		rep.BestPassS = min(rep.BestPassS, p.wallS)
	}
	rep.set(endToEnd, "setup_s", slices.Min(setups))
	rep.set(endToEnd, "events_per_s", float64(passes[0].events)/wallS)
	rep.set(endToEnd, "op_p50_ms", median(opsMS))
	rep.set(endToEnd, "op_p95_ms", percentile(opsMS, 95))
	rep.set(endToEnd, "peak_rss_mb", rss)
	rep.set(endToEnd, "ipc_gain_pct", q.ipcGain)
	rep.set(endToEnd, "accuracy_pct", q.accuracy)
	rep.set(endToEnd, "coverage_pct", q.coverage)
	return rep, nil
}

// runTraced is the separate traced run that produces the per-layer numbers:
// one set-up, untraced and traced passes of the workload (half the window
// each, so their difference is the tracing overhead), the stage-attribution
// table, and the layer probes. The traced passes must reproduce the untraced
// passes' outputs exactly.
func runTraced(spec workloadSpec, rc *runCtx) (*report, error) {
	rep := &report{Env: readEnv(), Workload: spec.Name, Seed: rc.seed, Seconds: rc.seconds, Traced: true, Metrics: map[string]metricValue{}}
	ckpt := filepath.Join(rc.outDir, fmt.Sprintf("ckpt-%s-%d-%d", spec.Name, rc.seed, os.Getpid()))
	defer os.RemoveAll(ckpt)

	w := spec.new()
	if err := w.setup(rc); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	// Untraced and traced passes alternate, so drift over the window (heap
	// growth, a noisy neighbour) falls on both sides of the overhead figure.
	tr := newTracer()
	var plain, traced []passResult
	minPasses := max(2, rc.sc.minPasses-1)
	for start := time.Now(); len(traced) < minPasses || time.Since(start).Seconds() < rc.seconds; {
		for _, t := range []*tracer{nil, tr} {
			p, err := w.pass(rc, t)
			if err != nil {
				return nil, fmt.Errorf("pass %d: %w", len(plain)+len(traced)+1, err)
			}
			if t == nil {
				plain = append(plain, p)
			} else {
				traced = append(traced, p)
			}
		}
	}
	rep.collect(append(append([]passResult(nil), plain...), traced...))

	layer := layerValues{}
	// The probe fixture checkpoints its artifacts so the resume path can be
	// timed; it is separate from the workload's own fixture, whose set-up
	// must stay what the untraced run measures.
	opt := mlOptions(rc.sc, "f64", 0)
	opt.CheckpointDir = ckpt
	pfx, err := newMLFixture(opt, rc.seed)
	if err != nil {
		return nil, fmt.Errorf("probe fixture: %w", err)
	}
	if err := runProbes(rc, pfx, layer); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	overlay(layer, spec.Name, traced)

	stages := attribute(tr.all())
	rep.Stages = stages.shares()
	for name, share := range rep.Stages {
		layer["stage."+name+"_share"] = share
	}
	tracedPerS, err := eventsPerS(traced)
	if err != nil {
		return nil, fmt.Errorf("traced passes: %w", err)
	}
	plainPerS, err := eventsPerS(plain)
	if err != nil {
		return nil, fmt.Errorf("untraced passes: %w", err)
	}
	layer["trace_overhead_pct"] = 100 * (1 - tracedPerS/plainPerS)

	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		rep.set(perLayer, m.Name, v)
	}
	path := filepath.Join(rc.outDir, "trace-"+spec.Name+".json")
	if err := tr.write(path, rep.Env, spec.Name, rc.seed); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return rep, nil
}

// overlay replaces probe values with what the workload's own traced passes
// measured in place, where they exercise the layer.
func overlay(layer layerValues, workload string, traced []passResult) {
	var mp []*opProbe
	opNS, calls := map[string]float64{}, map[string]float64{}
	var simRunNS, simOperateNS float64
	var chunkMS []float64
	var mallocs uint64
	transitions, events := 0, 0
	for _, p := range traced {
		for _, pr := range p.probes {
			if pr.name == "mpgraph" {
				mp = append(mp, pr)
			}
			opNS[pr.name] += float64(pr.scale(pr.opNS))
			calls[pr.name] += float64(pr.calls)
			if len(p.sims) > 0 {
				simOperateNS += float64(pr.scale(pr.opNS))
			}
		}
		if len(p.sims) > 0 { // the pass's operations are its simulations
			for _, ms := range p.opsMS {
				simRunNS += ms * 1e6
			}
		}
		chunkMS = append(chunkMS, p.opsMS...)
		transitions += p.transitions
		mallocs += p.mallocs
		events += p.events
	}
	for name, n := range calls {
		if name != "mpgraph" && name != "none" && n > 0 {
			layer["prefetch."+name+"_operate_ns"] = opNS[name] / n
		}
	}
	if len(mp) > 0 {
		setCoreLayer(layer, mp, transitions/len(traced))
	}
	if sims := traced[0].sims; len(sims) > 0 {
		setSimLayer(layer, sims, int64(simRunNS), int64(simOperateNS))
	}
	switch workload {
	case "replay-b8-int8":
		setBatchWait(layer, mp)
	case "serve-http-f32", "serve-churn-f32":
		setServeLayer(layer, chunkMS, mallocs, events, *traced[len(traced)-1].stats)
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/graph"
	"mpgraph/internal/models"
	"mpgraph/internal/nn"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// Layer probes: one short, direct measurement per layer, taken through the
// layer's public functions. Every traced run takes all of them on the same
// fixture shape, so a layer's number is comparable across workloads; where a
// traced workload pass measures the same quantity in place (the controller
// under a real sweep, the batch wait under a real replay), run.go lets that
// value take the probe's place.

// perCallNS times n calls of f after warm warm-up calls.
func perCallNS(warm, n int, f func()) float64 {
	for i := 0; i < warm; i++ {
		f()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianOf3 runs f three times and returns the median wall time in seconds.
func medianOf3(f func()) float64 {
	var s [3]float64
	for i := range s {
		s[i] = timedMS(f) / 1e3
	}
	return median(s[:])
}

type layerValues map[string]float64

// runProbes fills every per-layer metric that has a probe.
func runProbes(rc *runCtx, fx *mlFixture, out layerValues) error {
	for _, probe := range []func(*runCtx, *mlFixture, layerValues) error{
		probeExperiments, probeGraphSim, probePrefetchers, probeCore, probeBatchWait,
		probeModels, probeKernels, probeServe, probeReplayGrid,
	} {
		if err := probe(rc, fx, out); err != nil {
			return err
		}
	}
	return nil
}

// probeExperiments reports the set-up stages. The fixture of a traced run
// checkpoints its artifacts, so a second runner can time the resume path.
func probeExperiments(rc *runCtx, fx *mlFixture, out layerValues) error {
	out["experiments.data_s"], out["experiments.suite_train_s"] = fx.dataS, fx.trainS
	for _, t := range []string{"f32", "int8"} {
		if _, err := fx.tier(t); err != nil {
			return err
		}
	}
	out["experiments.convert_f32_s"], out["experiments.quantize_int8_s"] = fx.tierS["f32"], fx.tierS["int8"]

	opt := fx.opt
	opt.Resume = true
	t0 := time.Now()
	if _, err := experiments.NewRunner(opt).Suite(mlWorkload); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	out["experiments.suite_resume_s"] = time.Since(t0).Seconds()
	return nil
}

// probeGraphSim measures graph and trace generation and the bare engine.
func probeGraphSim(rc *runCtx, fx *mlFixture, out layerValues) error {
	// Generation is one large allocation-heavy call, so a single timing is
	// at the mercy of the collector: take the median of three.
	w := &classicWorkload{}
	w.configure(rc)
	var err error
	out["graph.rmat_gen_s"] = medianOf3(func() {
		if g, e := graph.GenerateRMAT(graph.DefaultRMAT(rc.sc.classicScale, rc.seed)); e != nil {
			err = e
		} else {
			w.g = g
		}
	})
	if err != nil {
		return err
	}
	for _, c := range classicCells {
		var tr *trace.Trace
		s := medianOf3(func() {
			if t, e := w.generate(c.framework, c.app); e != nil {
				err = e
			} else {
				tr = t
			}
		})
		if err != nil {
			return err
		}
		out[fmt.Sprintf("frameworks.%s_%s_accesses_per_s", c.framework, c.app)] = float64(len(tr.Accesses)) / s
		if c.framework != "gpop" {
			continue
		}
		eng, err := sim.NewEngine(w.simCfg, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		eng.Run(tr.Accesses)
		out["sim.nopf_accesses_per_s"] = float64(len(tr.Accesses)) / time.Since(t0).Seconds()

		bo := newTimedPrefetcher(prefetch.NewBO(prefetch.DefaultBOConfig()))
		if eng, err = sim.NewEngine(w.simCfg, bo); err != nil {
			return err
		}
		t0 = time.Now()
		m := eng.Run(tr.Accesses)
		setSimLayer(out, []sim.Metrics{m}, time.Since(t0).Nanoseconds(), bo.p.scale(bo.p.opNS))
	}
	return nil
}

// setSimLayer derives the sim.* metrics from simulation results, their
// summed run time and the part of it spent inside Operate.
func setSimLayer(out layerValues, sims []sim.Metrics, runNS, operateNS int64) {
	var llc, issued, useful uint64
	for _, m := range sims {
		llc += m.LLCHits + m.LLCMisses
		issued += m.PrefetchesIssued
		useful += m.UsefulPrefetches
	}
	out["sim.llc_accesses"], out["sim.prefetch_issued"], out["sim.prefetch_useful"] = float64(llc), float64(issued), float64(useful)
	if runNS > 0 {
		out["sim.engine_self_share"] = float64(runNS-operateNS) / float64(runNS)
	}
}

// probePrefetchers times Operate of each classic and ML baseline over the
// workload's LLC stream.
func probePrefetchers(rc *runCtx, fx *mlFixture, out layerValues) error {
	s := fx.suit
	T := s.Cfg.HistoryT
	mlOpt := prefetch.MLOptions{Degree: 6}
	classic := classicPrefetchers()[1:]
	ml := []sim.Prefetcher{
		prefetch.NewDeltaLSTM(s.LSTMDelta, T, mlOpt),
		prefetch.NewVoyager(s.LSTMPage, s.LSTMDelta, T, mlOpt),
		prefetch.NewTransFetch(s.AttnDelta, T, mlOpt),
	}
	run := func(pf sim.Prefetcher, n int) {
		accs := fx.llcAccesses(n + 64)
		i := 0
		out["prefetch."+pf.Name()+"_operate_ns"] = perCallNS(64, n, func() { pf.Operate(accs[i]); i++ })
	}
	for _, pf := range classic {
		run(pf, 4000*rc.sc.probeRepeat)
	}
	for _, pf := range ml {
		run(pf, 40*rc.sc.probeRepeat)
	}
	return nil
}

// setCoreLayer derives the core.* and phasedet.* metrics from MPGraph probes.
func setCoreLayer(out layerValues, probes []*opProbe, transitions int) {
	var calls, modelCalls, issued float64
	var op, det, model float64
	for _, p := range probes {
		if p.name != "mpgraph" || p.calls == 0 {
			continue
		}
		calls += float64(p.calls)
		modelCalls += float64(p.modelCalls)
		issued += float64(p.issued)
		op += float64(p.scale(p.opNS))
		det += float64(p.scale(p.detNS))
		model += float64(p.scale(p.modelNS))
	}
	if calls == 0 {
		return
	}
	out["core.operate_ns"] = op / calls
	out["core.controller_self_ns"] = (op - det - model) / calls
	out["core.model_calls_per_operate"] = modelCalls / calls
	out["core.prefetches_per_operate"] = issued / calls
	out["core.transitions"] = float64(transitions)
	out["phasedet.observe_ns"] = det / calls
}

// probeCore runs a fully timed f64 MPGraph (guarded, as in the sweep).
func probeCore(rc *runCtx, fx *mlFixture, out layerValues) error {
	tp, err := fx.tracedPrimary("f64", nil, true)
	if err != nil {
		return err
	}
	for _, acc := range fx.llcAccesses(100 * rc.sc.probeRepeat) {
		tp.Operate(acc)
	}
	setCoreLayer(out, []*opProbe{tp.p}, tp.mp.Transitions)
	return nil
}

// setBatchWait derives prefetch.batch_call_wait_ns: mean time inside a
// batch-tier handle's DeltaScores/TopPages (wait + fused round).
func setBatchWait(out layerValues, probes []*opProbe) {
	var ns, calls float64
	for _, p := range probes {
		ns += float64(p.scale(p.modelNS))
		calls += float64(p.modelCalls)
	}
	if calls > 0 {
		out["prefetch.batch_call_wait_ns"] = ns / calls
	}
}

// probeBatchWait drives four int8 MPGraph instances through one Batch=8
// scheduler concurrently.
func probeBatchWait(rc *runCtx, fx *mlFixture, out layerValues) error {
	sched := prefetch.NewBatchScheduler(8)
	const workers = 4
	tps := make([]*timedPrefetcher, workers)
	for i := range tps {
		tp, err := fx.tracedPrimary("int8", sched.NewSession(), false)
		if err != nil {
			return err
		}
		tps[i] = tp
	}
	accs := fx.llcAccesses(40 * rc.sc.probeRepeat)
	var wg sync.WaitGroup
	for _, tp := range tps {
		wg.Add(1)
		go func(tp *timedPrefetcher) {
			defer wg.Done()
			tp.JoinBatch()
			defer tp.LeaveBatch()
			for _, acc := range accs {
				tp.Operate(acc)
			}
		}(tp)
	}
	wg.Wait()
	probes := make([]*opProbe, workers)
	for i, tp := range tps {
		probes[i] = tp.p
	}
	setBatchWait(out, probes)
	return nil
}

// probeModels times one delta and one page call per tier, the batched delta
// call at B=8 and B=64, a training step and the two snapshot formats.
func probeModels(rc *runCtx, fx *mlFixture, out layerValues) error {
	s := fx.suit
	samples := s.Test.Samples
	if len(samples) == 0 {
		return fmt.Errorf("empty test dataset")
	}
	rep := rc.sc.probeRepeat
	c := tensor.NewCtx()
	for _, tier := range tiers {
		tm, err := fx.tier(tier)
		if err != nil {
			return err
		}
		delta, page := tm.deltas[0], tm.pages[0]
		i := 0
		out["models.delta_call_ns_"+tier] = perCallNS(4, 40*rep, func() {
			c.Reset()
			models.DeltaScoresWith(c, delta, samples[i%len(samples)])
			i++
		})
		var dst []uint64
		out["models.page_call_ns_"+tier] = perCallNS(4, 40*rep, func() {
			c.Reset()
			dst = models.TopPagesWith(c, page, samples[i%len(samples)], 1, dst[:0])
			i++
		})
		for _, b := range []int{8, 64} {
			ss := make([]*models.Sample, b)
			for j := range ss {
				ss[j] = samples[j%len(samples)]
			}
			ns := perCallNS(2, 3*rep, func() {
				c.Reset()
				models.DeltaScoresBatchWith(c, delta, ss)
			})
			out[fmt.Sprintf("models.delta_batch%d_ns_per_sample_%s", b, tier)] = ns / float64(b)
		}
	}

	steps := min(len(s.Train.Samples), 4*rep)
	ds := &models.Dataset{Cfg: s.Cfg, Samples: s.Train.Samples[:steps], Pages: s.Train.Pages, PCs: s.Train.PCs}
	fresh := models.NewAMMADelta(s.Cfg, ds.PCs, 0, fx.opt.Seed)
	t0 := time.Now()
	if err := models.TrainDelta(fresh, ds, models.TrainOptions{Epochs: 1, Seed: fx.opt.Seed}); err != nil {
		return err
	}
	out["models.train_step_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(steps)

	pm := &models.PrefetcherModels{Cfg: s.Cfg, Pages: s.Train.Pages, PCs: s.Train.PCs}
	for i := range s.PSDelta.Models {
		d, ok1 := s.PSDelta.Models[i].(*models.AMMADelta)
		p, ok2 := s.PSPage.Models[i].(*models.AMMAPage)
		if !ok1 || !ok2 {
			return fmt.Errorf("phase-specific suite is not AMMA (%T/%T)", s.PSDelta.Models[i], s.PSPage.Models[i])
		}
		pm.Deltas, pm.PageMs = append(pm.Deltas, d), append(pm.PageMs, p)
	}
	var buf bytes.Buffer
	for _, f := range []struct {
		name string
		save func() error
	}{{"f64", func() error { return pm.Save(&buf) }}, {"f16", func() error { return pm.SaveF16(&buf) }}} {
		var err error
		ns := perCallNS(1, 2*rep, func() {
			buf.Reset()
			if e := f.save(); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		out["models.suite_save_"+f.name+"_ms"] = ns / 1e6
		out["models.snapshot_"+f.name+"_kb"] = float64(buf.Len()) / 1024
	}
	return nil
}

// probeKernels times one Transformer layer and one LSTM at the suite's
// shapes in f64 and f32, and the autograd 128³ GEMM that training uses.
func probeKernels(rc *runCtx, fx *mlFixture, out layerValues) error {
	cfg := fx.suit.Cfg
	rep := rc.sc.probeRepeat
	rng := rand.New(rand.NewSource(fx.opt.Seed))
	c := tensor.NewCtx()

	tl := nn.NewTransformerLayer(cfg.FusionDim, cfg.Heads, rng)
	x := tensor.Randn(cfg.HistoryT, cfg.FusionDim, 1, rng)
	out["nn.transformer_fwd_ns_f64"] = perCallNS(4, 60*rep, func() { c.Reset(); tl.ForwardCtx(c, x) })
	tl32, x32 := nn.NewF32TransformerLayer(tl), tensor.NarrowF32(x)
	out["nn.transformer_fwd_ns_f32"] = perCallNS(4, 60*rep, func() { c.Reset(); tl32.ForwardCtx(c, x32) })

	lstm := nn.NewLSTM(cfg.NumSegments+1, cfg.LSTMHidden, rng)
	xl := tensor.Randn(cfg.HistoryT, cfg.NumSegments+1, 1, rng)
	out["nn.lstm_fwd_ns_f64"] = perCallNS(4, 30*rep, func() { c.Reset(); lstm.ForwardCtx(c, xl) })
	lstm32, xl32 := nn.NewF32LSTM(lstm), tensor.NarrowF32(xl)
	out["nn.lstm_fwd_ns_f32"] = perCallNS(4, 30*rep, func() { c.Reset(); lstm32.ForwardCtx(c, xl32) })

	const n = 128
	a, b := tensor.Randn(n, n, 1, rng), tensor.Randn(n, n, 1, rng)
	ns := perCallNS(1, 3*rep, func() { tensor.MatMul(a, b) })
	out["tensor.matmul128_ns"] = ns
	// 2·n³ floating-point operations per product: computed, not counted.
	out["tensor.matmul128_gflops"] = 2 * n * n * n / ns
	return nil
}

// probeServe measures the serve layer on f32 sessions: Feed's own cost per
// event, what HTTP adds per chunk, and the cost of opening a session.
func probeServe(rc *runCtx, fx *mlFixture, out layerValues) error {
	ctx := context.Background()
	rep := rc.sc.probeRepeat
	discard := func(serve.Prediction) error { return nil }
	chunks := 4 * rep
	stream := fx.streams(rc.seed, 1, chunks*chunkEvents)[0]

	// Feed self time: a direct Feed minus the time inside the prefetcher.
	var tp *timedPrefetcher
	srv, err := serve.New(serve.Config{NewPrimary: func(sched core.ModelScheduler) (sim.Prefetcher, error) {
		var err error
		tp, err = fx.tracedPrimary("f32", sched, false)
		return tp, err
	}})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := srv.Feed(ctx, "probe", stream, discard); err != nil {
		return err
	}
	feedNS := time.Since(t0).Nanoseconds()
	out["serve.feed_self_ns_per_event"] = float64(feedNS-tp.p.opNS) / float64(len(stream))

	// The same chunks over HTTP and through Feed directly, one client.
	plain := func(sched core.ModelScheduler) (sim.Prefetcher, error) {
		return fx.assemble("f32", fx.detector(), sched)
	}
	w := &serveWorkload{fx: fx}
	if w.srv, err = serve.New(serve.Config{MaxSessions: 64, NewPrimary: plain}); err != nil {
		return err
	}
	w.ts = httptest.NewServer(serve.NewHandler(w.srv))
	defer w.close()
	w.client = w.ts.Client()
	direct, err := serve.New(serve.Config{MaxSessions: 64, NewPrimary: plain})
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var httpMS []float64
	var feedMS float64
	for j := 0; j < chunks; j++ {
		chunk := stream[j*chunkEvents : (j+1)*chunkEvents]
		body, err := encodeEvents(chunk)
		if err != nil {
			return err
		}
		_, ms, err := w.post(nil, 0, "probe", body, len(chunk))
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		httpMS = append(httpMS, ms)
		feedMS += timedMS(func() { err = direct.Feed(ctx, "probe", chunk, discard) })
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	var sum float64
	for _, ms := range httpMS {
		sum += ms
	}
	out["serve.http_overhead_us_per_chunk"] = (sum - feedMS) / float64(chunks) * 1e3
	setServeLayer(out, httpMS, after.Mallocs-before.Mallocs, 2*len(stream), w.srv.Stats())

	// Session open: one-event feeds on fresh ids (the first events of a
	// session run no inference: the history window is not warm yet).
	opens := 25 * rep
	opener, err := serve.New(serve.Config{MaxSessions: opens, NewPrimary: plain})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < opens; i++ {
		if err := opener.Feed(ctx, fmt.Sprint("open", i), stream[:1], discard); err != nil {
			return err
		}
	}
	out["serve.session_open_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(opens)
	return nil
}

// setServeLayer derives the serve.* metrics a served pass can observe.
// allocs_per_event is the process-wide malloc count per event: the load
// generator runs in this process, so its allocations are included.
func setServeLayer(out layerValues, chunkMS []float64, mallocs uint64, events int, st serve.Stats) {
	out["serve.chunk_p99_ms"] = percentile(chunkMS, 99)
	if events > 0 {
		out["serve.allocs_per_event"] = float64(mallocs) / float64(events)
	}
	out["serve.admitted"], out["serve.evicted"] = float64(st.Admitted), float64(st.Evicted)
	out["serve.rejected"], out["serve.degraded"] = float64(st.Rejected), float64(st.Degraded)
}

// probeReplayGrid replays one small log through every tier × batch cell:
// the table the precision and batching decisions are taken on.
func probeReplayGrid(rc *runCtx, fx *mlFixture, out layerValues) error {
	sessions, events := 8, 16*rc.sc.probeRepeat
	log, err := replayLog(fx, rc.seed, sessions, events)
	if err != nil {
		return err
	}
	for _, tier := range tiers {
		for _, batch := range []int{0, 8} {
			// The fastest of three replays, each on a fresh server: the
			// unbatched cells are the first thing in a sweep's traced run to
			// use both vCPUs, and the host takes a moment to give the second
			// one its full speed.
			best := 0.0
			for try := 0; try < 3; try++ {
				cfg := serve.Config{MaxSessions: 64, NewPrimary: func(sched core.ModelScheduler) (sim.Prefetcher, error) {
					return fx.assemble(tier, fx.detector(), sched)
				}}
				if batch > 0 {
					sched := prefetch.NewBatchScheduler(batch)
					cfg.NewModelSession = func() core.ModelScheduler { return sched.NewSession() }
				}
				srv, err := serve.New(cfg)
				if err != nil {
					return err
				}
				var sink bytes.Buffer
				t0 := time.Now()
				if err := serve.Replay(context.Background(), srv, bytes.NewReader(log), &sink, replayParallel); err != nil {
					return fmt.Errorf("replay grid %s/b%d: %w", tier, batch, err)
				}
				best = max(best, float64(sessions*events)/time.Since(t0).Seconds())
			}
			out[fmt.Sprintf("serve.replay_events_per_s_%s_b%d", tier, batch)] = best
		}
	}
	return nil
}

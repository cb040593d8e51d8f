package experiments

import (
	"fmt"
	"sync"

	"mpgraph/internal/core"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/graph"
	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// Runner caches the expensive intermediate artifacts (graphs, traces, LLC
// streams, trained model suites) across experiment invocations.
type Runner struct {
	Opt Options

	// Events collects degradation events (recovered panics, quarantined
	// prefetchers, corrupt checkpoints) from every component the runner
	// wires together. Never nil.
	Events *resilience.Log

	mu     sync.Mutex
	graphs map[string]*graph.Graph
	data   map[Workload]*cell[*WorkloadData]
	suites map[Workload]*cell[*Suite]
	tiers  map[Workload]*cell[*qpair]

	storeOnce sync.Once
	store     *resilience.Store
	storeErr  error

	// batchSched is the sweep-wide batched-inference scheduler, created
	// lazily when Options.Batch > 0 and shared by every ML prefetcher the
	// runner assembles.
	batchSched *prefetch.BatchScheduler

	sweepRows  map[string][]prefetchRow
	sweepOrder []string
}

// NewRunner builds a runner for opt.
func NewRunner(opt Options) *Runner {
	return &Runner{
		Opt:    opt,
		Events: &resilience.Log{},
		graphs: map[string]*graph.Graph{},
		data:   map[Workload]*cell[*WorkloadData]{},
		suites: map[Workload]*cell[*Suite]{},
		tiers:  map[Workload]*cell[*qpair]{},
	}
}

// cell coalesces concurrent computations of one cached artifact: the first
// caller runs the compute function under the cell's lock, every concurrent
// caller blocks on the same lock and shares the result. This keeps the
// expensive pipeline stages (framework runs, model training) race-free AND
// single-flight — without it, two goroutines asking for the same workload
// both paid the full cost and the last store won.
//
// Only success is cached. A failed compute leaves the cell empty, so a later
// caller retries instead of inheriting a stale transient error forever (the
// sync.Once design this replaced poisoned the cell on first failure: one
// injected fault made the artifact permanently uncomputable for the process
// lifetime).
type cell[T any] struct {
	mu   sync.Mutex
	wait chan struct{} // non-nil while a compute is in flight; closed when it settles
	done bool
	val  T
}

// get returns the cached value, computing it inside a resilience boundary
// when absent: a panic anywhere in the compute function surfaces as a
// *resilience.PanicError instead of killing the process.
//
// The compute runs OUTSIDE the cell lock: the first caller claims the
// flight by installing c.wait, concurrent callers block on that channel,
// and when the flight settles they re-check the cache (retrying the
// compute themselves if it failed). The lock only ever guards field
// access, so a panicking compute cannot strand it and the recovery
// boundary never extends a critical section.
func (c *cell[T]) get(boundary string, compute func() (T, error)) (T, error) {
	for {
		c.mu.Lock()
		if c.done {
			v := c.val
			c.mu.Unlock()
			return v, nil
		}
		if w := c.wait; w != nil {
			c.mu.Unlock()
			<-w
			continue
		}
		w := make(chan struct{})
		c.wait = w
		c.mu.Unlock()

		val, err := resilience.GuardVal(boundary, compute)

		c.mu.Lock()
		if err == nil {
			c.val = val
			c.done = true
		}
		c.wait = nil
		c.mu.Unlock()
		close(w)

		if err != nil {
			var zero T
			return zero, err
		}
		return val, nil
	}
}

// getCell returns (creating if needed) the cell for key in m, under mu.
func getCell[K comparable, T any](mu *sync.Mutex, m map[K]*cell[T], key K) *cell[T] {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[key]
	if !ok {
		c = &cell[T]{}
		m[key] = c
	}
	return c
}

// scheduler returns the shared batched-inference scheduler (nil when
// batching is off), creating it on first use.
func (r *Runner) scheduler() *prefetch.BatchScheduler {
	if r.Opt.Batch <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.batchSched == nil {
		r.batchSched = prefetch.NewBatchScheduler(r.Opt.Batch)
	}
	return r.batchSched
}

// NewModelSession mints a fresh handle into the shared batched-inference
// scheduler for one externally-owned prefetcher session (the serving
// daemon's per-client sessions). Returns untyped nil when batching is off,
// so callers can test the interface value directly.
func (r *Runner) NewModelSession() core.ModelScheduler {
	sched := r.scheduler()
	if sched == nil {
		return nil
	}
	return sched.NewSession()
}

// WorkloadData is everything derived from one workload trace.
type WorkloadData struct {
	Trace     *trace.Trace
	Result    *frameworks.Result
	NumPhases int
	// TestRaw is the raw (pre-cache) access stream of the test iterations,
	// capped at MaxTestAccesses — the input to prefetcher simulations.
	TestRaw []trace.Access
	// LLCTrain and LLCTest are the shared-LLC streams captured from the
	// train (iteration 1) and test slices under no prefetching.
	LLCTrain []trace.Access
	LLCTest  []trace.Access
	// BaselineMetrics is the no-prefetch simulation of TestRaw.
	BaselineMetrics sim.Metrics
}

// Graph returns (generating once) the named dataset at the configured scale.
func (r *Runner) Graph(name string) (*graph.Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.graphs[name]; ok {
		return g, nil
	}
	spec, err := graph.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	g, err := spec.GenerateScale(r.Opt.graphScale())
	if err != nil {
		return nil, err
	}
	r.graphs[name] = g
	return g, nil
}

// Data returns (computing once, coalescing concurrent callers) the trace
// pipeline outputs for w. A failed compute is retryable; a panic during the
// compute is recovered into an error.
func (r *Runner) Data(w Workload) (*WorkloadData, error) {
	c := getCell(&r.mu, r.data, w)
	return c.get("experiments.Data("+w.String()+")", func() (*WorkloadData, error) {
		return r.computeData(w)
	})
}

func (r *Runner) computeData(w Workload) (*WorkloadData, error) {
	if err := r.Opt.Injector.Fire(resilience.PointArtifactBuild); err != nil {
		return nil, err
	}
	fw, err := frameworks.ByName(w.Framework)
	if err != nil {
		return nil, err
	}
	tr, res, ok, err := r.loadTraceCheckpoint(w)
	if err != nil {
		return nil, err
	}
	if !ok {
		g, err := r.Graph(w.Dataset)
		if err != nil {
			return nil, err
		}
		if tr, res, err = fw.Run(g, w.App, r.Opt.frameworkOptions()); err != nil {
			return nil, err
		}
		if err := r.saveTraceCheckpoint(w, tr, res); err != nil {
			return nil, err
		}
	}
	if tr.NumIterations() < 2 {
		return nil, fmt.Errorf("experiments: %s produced %d iterations, need >= 2", w, tr.NumIterations())
	}

	d := &WorkloadData{Trace: tr, Result: res, NumPhases: fw.NumPhases()}

	// Split: iteration 1 trains, the rest test (Section 5.1.4).
	trainLo, trainHi, err := tr.Iteration(0)
	if err != nil {
		return nil, err
	}
	trainRaw := tr.Accesses[trainLo:trainHi]
	testRawFull := tr.Accesses[trainHi:]
	// Simulations are capped for cost; the LLC streams used for prediction
	// and detection evaluation cover the full test slice so every barrier
	// transition is represented.
	testRaw := testRawFull
	if len(testRaw) > r.Opt.MaxTestAccesses {
		testRaw = testRaw[:r.Opt.MaxTestAccesses]
	}
	d.TestRaw = testRaw

	capture := func(raw []trace.Access) ([]trace.Access, sim.Metrics, error) {
		eng, err := sim.NewEngine(r.Opt.SimConfig(), nil)
		if err != nil {
			return nil, sim.Metrics{}, err
		}
		var llc []trace.Access
		eng.Recorder = func(a trace.Access, hit bool) { llc = append(llc, a) }
		m := eng.Run(raw)
		return llc, m, nil
	}
	if d.LLCTrain, _, err = capture(trainRaw); err != nil {
		return nil, err
	}
	if d.LLCTest, _, err = capture(testRawFull); err != nil {
		return nil, err
	}
	if _, d.BaselineMetrics, err = capture(testRaw); err != nil {
		return nil, err
	}
	minStream := r.Opt.ModelConfig().HistoryT + r.Opt.ModelConfig().LookForwardF + 2
	if len(d.LLCTrain) < minStream || len(d.LLCTest) < minStream {
		return nil, fmt.Errorf("experiments: %s LLC streams too short (%d train / %d test)", w, len(d.LLCTrain), len(d.LLCTest))
	}

	return d, nil
}

// Suite bundles the datasets and trained models for one workload.
type Suite struct {
	Cfg       models.Config
	Train     *models.Dataset
	Test      *models.Dataset
	NumPhases int

	// Delta predictors (Table 6 rows).
	LSTMDelta *models.LSTMDelta
	AttnDelta *models.AttnDelta
	AMMADelta *models.AMMADelta
	PIDelta   *models.AMMADelta
	PSDelta   *models.PhaseSpecificDelta

	// Page predictors (Table 7 rows).
	LSTMPage *models.LSTMPage
	AttnPage *models.AttnPage
	AMMAPage *models.AMMAPage
	PIPage   *models.AMMAPage
	PSPage   *models.PhaseSpecificPage
}

// Suite returns (training once, coalescing concurrent callers) the full
// model suite for w. A failed compute is retryable; a panic during the
// compute is recovered into an error.
func (r *Runner) Suite(w Workload) (*Suite, error) {
	c := getCell(&r.mu, r.suites, w)
	return c.get("experiments.Suite("+w.String()+")", func() (*Suite, error) {
		return r.computeSuite(w)
	})
}

func (r *Runner) computeSuite(w Workload) (*Suite, error) {
	// The skeleton — datasets extracted from the LLC streams and models
	// constructed at their fixed seeds — is rebuilt deterministically on
	// every path; a suite checkpoint only has to restore trained weights.
	s, d, err := r.suiteSkeleton(w)
	if err != nil {
		return nil, err
	}
	if ok, err := r.loadSuiteCheckpoint(w, s); err != nil {
		return nil, err
	} else if ok {
		return s, nil
	}

	topt := models.TrainOptions{
		Epochs: r.Opt.Epochs, Seed: r.Opt.Seed,
		MaxSamplesPerEpoch: r.Opt.TrainSamples, Hook: r.trainHook(),
	}
	// Phase-specific models see only their own phase's slice of each epoch;
	// scaling the epoch count by the phase count gives every per-phase
	// model the same number of gradient steps as the single-model rows.
	toptPS := topt
	toptPS.Epochs = topt.Epochs * d.NumPhases

	// The ten models are independent jobs: each touches only its own model
	// and its own tape (models.trainLoop), reads the shared dataset, and
	// never toggles the process-wide grad flag, so the trained weights are
	// the same bytes whatever runs beside what. They fan out over
	// GOMAXPROCS, not Options.Workers — that bounds the sweep's cells, and a
	// suite is set-up inside one cell. The two phase-specific models go
	// first: they run NumPhases times the steps, so started last they would
	// be the tail every other worker waits for.
	delta := func(m models.DeltaModel, o models.TrainOptions) func() error {
		return func() error { return models.TrainDelta(m, s.Train, o) }
	}
	page := func(m models.PageModel, o models.TrainOptions) func() error {
		return func() error { return models.TrainPage(m, s.Train, o) }
	}
	jobs := []func() error{
		page(s.PSPage, toptPS), delta(s.PSDelta, toptPS),
		delta(s.LSTMDelta, topt), delta(s.AttnDelta, topt), delta(s.AMMADelta, topt), delta(s.PIDelta, topt),
		page(s.LSTMPage, topt), page(s.AttnPage, topt), page(s.AMMAPage, topt), page(s.PIPage, topt),
	}
	if err := forEachIndex(len(jobs), 0, func(i int) error { return jobs[i]() }); err != nil {
		return nil, err
	}

	if err := r.saveSuiteCheckpoint(w, s); err != nil {
		return nil, err
	}
	return s, nil
}

// suiteSkeleton builds the untrained suite for w: datasets from the cached
// LLC streams plus every model at its constructor seed. The construction is
// fully deterministic, which is what lets a checkpoint restore weights into
// a structurally identical suite.
func (r *Runner) suiteSkeleton(w Workload) (*Suite, *WorkloadData, error) {
	d, err := r.Data(w)
	if err != nil {
		return nil, nil, err
	}
	cfg := r.Opt.ModelConfig()
	s := &Suite{Cfg: cfg, NumPhases: d.NumPhases}
	if s.Train, err = r.buildDataset(cfg, d.LLCTrain, nil); err != nil {
		return nil, nil, err
	}
	if s.Test, err = r.buildDataset(cfg, d.LLCTest, s.Train); err != nil {
		return nil, nil, err
	}
	seed := r.Opt.Seed
	s.LSTMDelta = models.NewLSTMDelta(cfg, seed+1)
	s.AttnDelta = models.NewAttnDelta(cfg, seed+2)
	s.AMMADelta = models.NewAMMADelta(cfg, s.Train.PCs, 0, seed+3)
	s.PIDelta = models.NewAMMADelta(cfg, s.Train.PCs, d.NumPhases, seed+4)
	s.PSDelta = models.NewPhaseSpecificDelta(cfg, s.Train.PCs, d.NumPhases, seed+5)
	s.LSTMPage = models.NewLSTMPage(cfg, s.Train.Pages, s.Train.PCs, seed+6)
	s.AttnPage = models.NewAttnPage(cfg, s.Train.Pages, s.Train.PCs, seed+7)
	s.AMMAPage = models.NewAMMAPage(cfg, s.Train.Pages, s.Train.PCs, 0, seed+8)
	s.PIPage = models.NewAMMAPage(cfg, s.Train.Pages, s.Train.PCs, d.NumPhases, seed+9)
	s.PSPage = models.NewPhaseSpecificPage(cfg, s.Train.Pages, s.Train.PCs, d.NumPhases, seed+10)
	return s, d, nil
}

// trainHook routes every training epoch through the train-epoch injection
// point (nil when no injector is armed, keeping training allocation-free).
func (r *Runner) trainHook() func(int) error {
	if r.Opt.Injector == nil {
		return nil
	}
	return func(int) error { return r.Opt.Injector.Fire(resilience.PointTrainEpoch) }
}

// buildDataset extracts a dataset, auto-tuning the stride so the sample
// count lands near the training budget.
func (r *Runner) buildDataset(cfg models.Config, stream []trace.Access, share *models.Dataset) (*models.Dataset, error) {
	budget := r.Opt.TrainSamples * 2
	if budget <= 0 {
		budget = 3000
	}
	usable := len(stream) - cfg.HistoryT - cfg.LookForwardF
	stride := usable/budget + 1
	opt := models.DatasetOptions{Stride: stride, MaxSamples: budget}
	if share != nil {
		opt.Pages, opt.PCs = share.Pages, share.PCs
	}
	return models.BuildDataset(cfg, stream, opt)
}

// Prefetchers builds the Section 5.4.1 comparison set for w: BO, ISB,
// Delta-LSTM, Voyager, TransFetch, and MPGraph (AMMA-PS + Soft-KSWIN +
// CSTP), all at total degree 6. Every ML prefetcher is wrapped in a
// degradation guard that quarantines it and falls back to a warm BO instance
// if its model misbehaves (recovered panics, non-finite scores, out-of-range
// blocks); a healthy guard is transparent, so guarded and unguarded
// prefetchers simulate identically.
func (r *Runner) Prefetchers(w Workload) ([]sim.Prefetcher, error) {
	if err := r.Opt.validatePrecision(); err != nil {
		return nil, err
	}
	s, err := r.Suite(w)
	if err != nil {
		return nil, err
	}
	T := s.Cfg.HistoryT
	mlOpt := prefetch.MLOptions{Degree: 6, Scheduler: r.scheduler()}

	mp, err := r.MPGraph(w, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	guard := func(pf sim.Prefetcher) sim.Prefetcher {
		fallback := prefetch.NewBO(prefetch.DefaultBOConfig())
		return prefetch.NewGuarded(pf, fallback, prefetch.GuardConfig{}, r.Events)
	}
	return []sim.Prefetcher{
		prefetch.NewBO(prefetch.DefaultBOConfig()),
		prefetch.NewISB(prefetch.DefaultISBConfig()),
		guard(prefetch.NewDeltaLSTM(s.LSTMDelta, T, mlOpt)),
		guard(prefetch.NewVoyager(s.LSTMPage, s.LSTMDelta, T, mlOpt)),
		guard(prefetch.NewTransFetch(s.AttnDelta, T, mlOpt)),
		guard(mp),
	}, nil
}

// qpair is one workload's reduced-precision phase-specific model pair.
type qpair struct {
	delta *models.PhaseSpecificDelta
	page  *models.PhaseSpecificPage
}

// tierPS returns (converting once, coalescing concurrent callers) the
// reduced-precision mirrors of w's phase-specific delta/page models
// (Options.toTier). Conversion copies every trained weight, so like Suite it
// is single-flight per workload — the parallel sweep shares one pair across
// all its simulations.
func (r *Runner) tierPS(w Workload) (*qpair, error) {
	c := getCell(&r.mu, r.tiers, w)
	return c.get("experiments.TierPS("+w.String()+")", func() (*qpair, error) {
		s, err := r.Suite(w)
		if err != nil {
			return nil, err
		}
		delta, page, err := r.Opt.toTier(s.PSDelta, s.PSPage)
		if err != nil {
			return nil, err
		}
		return &qpair{delta: delta, page: page}, nil
	})
}

// MPGraph assembles the full prefetcher for w with the given controller
// options: per-phase AMMA predictors plus a Soft-KSWIN detector. Under
// Options.Int8 the per-phase models are the 8-bit-weight mirrors; under
// Options.F32 they are the narrowed single-precision mirrors.
func (r *Runner) MPGraph(w Workload, opt core.Options) (*core.MPGraph, error) {
	if err := r.Opt.validatePrecision(); err != nil {
		return nil, err
	}
	s, err := r.Suite(w)
	if err != nil {
		return nil, err
	}
	if opt.Scheduler == nil {
		if sched := r.scheduler(); sched != nil {
			// One session per MPGraph instance; core talks to it through its
			// ModelScheduler seam (no core→prefetch dependency). Callers that
			// pre-set opt.Scheduler (the serving daemon wraps sessions with a
			// deadline-aware adapter) keep their own handle.
			opt.Scheduler = sched.NewSession()
		}
	}
	psDelta, psPage := s.PSDelta, s.PSPage
	if r.Opt.tier() != "" {
		tp, err := r.tierPS(w)
		if err != nil {
			return nil, err
		}
		psDelta, psPage = tp.delta, tp.page
	}
	deltas := make([]models.DeltaModel, len(psDelta.Models))
	copy(deltas, psDelta.Models)
	pages := make([]models.PageModel, len(psPage.Models))
	copy(pages, psPage.Models)
	det := phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: r.Opt.Seed})
	return core.New(opt, s.Cfg.HistoryT, det, deltas, pages)
}

// Simulate runs pf over w's test trace and returns the metrics plus the
// cached no-prefetch baseline.
func (r *Runner) Simulate(w Workload, pf sim.Prefetcher) (sim.Metrics, sim.Metrics, error) {
	d, err := r.Data(w)
	if err != nil {
		return sim.Metrics{}, sim.Metrics{}, err
	}
	eng, err := sim.NewEngine(r.Opt.SimConfig(), pf)
	if err != nil {
		return sim.Metrics{}, sim.Metrics{}, err
	}
	return eng.Run(d.TestRaw), d.BaselineMetrics, nil
}

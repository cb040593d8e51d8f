package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/graph"
	"mpgraph/internal/models"
	"mpgraph/internal/nn"
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
	graphs map[string]*cell[*graph.Graph]
	data   map[Workload]*cell[*WorkloadData]
	suites map[Workload]*lazySuite
	tiers  map[Workload]*cell[*qpair]
	store  cell[*resilience.Store]
	sweep  cell[*prefetchSweep]

	// batchSched is the sweep-wide batched-inference scheduler (nil when
	// Options.Batch is 0), shared by every ML prefetcher the runner
	// assembles.
	batchSched *prefetch.BatchScheduler
}

// NewRunner builds a runner for opt.
func NewRunner(opt Options) *Runner {
	r := &Runner{
		Opt:    opt,
		Events: &resilience.Log{},
		graphs: map[string]*cell[*graph.Graph]{},
		data:   map[Workload]*cell[*WorkloadData]{},
		suites: map[Workload]*lazySuite{},
		tiers:  map[Workload]*cell[*qpair]{},
	}
	if opt.Batch > 0 {
		r.batchSched = prefetch.NewBatchScheduler(opt.Batch)
	}
	return r
}

// cell coalesces concurrent computations of one cached artifact: the first
// caller runs the compute, every concurrent caller waits for that flight and
// shares the result. This keeps the expensive pipeline stages (framework
// runs, model training) race-free AND single-flight — without it, two
// goroutines asking for the same workload both paid the full cost and the
// last store won.
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
		val, done, wait := c.claim()
		if done {
			return val, nil
		}
		if wait != nil {
			<-wait
			continue
		}
		val, err := resilience.GuardVal(boundary, compute)
		c.settle(val, err == nil)
		if err != nil {
			var zero T
			return zero, err
		}
		return val, nil
	}
}

// claim returns the cached value (done), or the channel of the flight in
// progress, closed when it settles. When it returns neither, the caller owns
// a new flight and must settle it.
func (c *cell[T]) claim() (val T, done bool, wait <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.val, true, nil
	}
	if c.wait != nil {
		return val, false, c.wait
	}
	c.wait = make(chan struct{})
	return val, false, nil
}

// settle ends the caller's flight: ok caches val, !ok leaves the cell empty
// for the next caller to retry.
func (c *cell[T]) settle(val T, ok bool) {
	c.mu.Lock()
	w := c.wait
	if ok {
		c.val, c.done = val, true
	}
	c.wait = nil
	c.mu.Unlock()
	close(w)
}

// getCell returns (creating if needed) the entry for key in m, under mu.
func getCell[K comparable, V any](mu *sync.Mutex, m map[K]*V, key K) *V {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[key]
	if !ok {
		c = new(V)
		m[key] = c
	}
	return c
}

// NewModelSession mints a fresh handle into the shared batched-inference
// scheduler for one externally-owned prefetcher session (the serving
// daemon's per-client sessions). Returns untyped nil when batching is off,
// so callers can test the interface value directly.
func (r *Runner) NewModelSession() core.ModelScheduler {
	if r.batchSched == nil {
		return nil
	}
	return r.batchSched.NewSession()
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

// Graph returns (generating once, coalescing concurrent callers) the named
// dataset at the configured scale.
func (r *Runner) Graph(name string) (*graph.Graph, error) {
	c := getCell(&r.mu, r.graphs, name)
	return c.get("experiments.Graph("+name+")", func() (*graph.Graph, error) {
		spec, err := graph.DatasetByName(name)
		if err != nil {
			return nil, err
		}
		return spec.GenerateScale(r.Opt.graphScale())
	})
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

// Suite bundles the datasets and trained models for one workload. A model
// field stays nil until a Runner.Suite call that names the model returns.
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

// SuiteModel names one of a suite's ten models.
type SuiteModel int

// The suite's models, in Suite field order; String names the field. Each
// model's constructor seed is Options.Seed plus its position plus one.
const (
	LSTMDelta SuiteModel = iota
	AttnDelta
	AMMADelta
	PIDelta
	PSDelta
	LSTMPage
	AttnPage
	AMMAPage
	PIPage
	PSPage
	numSuiteModels
)

// AllModels is every suite model: the rows of Tables 6 and 7.
var AllModels = []SuiteModel{LSTMDelta, AttnDelta, AMMADelta, PIDelta, PSDelta, LSTMPage, AttnPage, AMMAPage, PIPage, PSPage}

// trainOrder is the order a request's models start training in, longest
// job first: the phase-specific pair trains one job per phase
// (trainModels), each replaying the pair's NumPhases× epochs, so its jobs
// go first rather than become the tail every other worker waits for. Of the
// single models LSTMPage is the longest job (about twice LSTMDelta or
// AttnDelta, measured through Runner.TrainJobs), so it leads them and still
// starts beside a delta job.
var trainOrder = []SuiteModel{PSPage, PSDelta, LSTMPage, LSTMDelta, AttnDelta, AMMADelta, PIDelta, AttnPage, AMMAPage, PIPage}

var suiteModelNames = [numSuiteModels]string{
	"LSTMDelta", "AttnDelta", "AMMADelta", "PIDelta", "PSDelta",
	"LSTMPage", "AttnPage", "AMMAPage", "PIPage", "PSPage",
}

func (m SuiteModel) String() string { return suiteModelNames[m] }

// lazySuite is one workload's suite: the datasets, built once, and a cell
// per model that settles once the model has trained or been restored.
type lazySuite struct {
	data   cell[*Suite]
	models [numSuiteModels]cell[struct{}]
	// trains counts the training runs each model started.
	trains [numSuiteModels]atomic.Int32

	jobsMu sync.Mutex
	jobs   []TrainJob // the finished training jobs, in finishing order
}

// TrainJob is one finished training job: a model, or one phase of a
// phase-specific model ("PSPage/phase0"), and its wall time.
type TrainJob struct {
	Name    string
	Seconds float64
}

// TrainJobs lists the training jobs this runner has finished for w. Models
// restored from a checkpoint ran none.
func (r *Runner) TrainJobs(w Workload) []TrainJob {
	ls := getCell(&r.mu, r.suites, w)
	ls.jobsMu.Lock()
	defer ls.jobsMu.Unlock()
	return slices.Clone(ls.jobs)
}

// Suite returns w's datasets with the phase-specific pair and every model
// in want trained. Every consumer reads the pair, so it always trains; any
// other model trains the first time a call names it, and stays nil before.
// Training is single-flight per (workload, model): concurrent calls share
// one run, a failed run is retried by the next call, and a call's untrained
// models train side by side. With a checkpoint store (Options.CheckpointDir)
// the suite is whole — all ten models, because benchmark/probes.go reads the
// baselines of a checkpointed Suite(w) — and each model is its own record:
// it is saved once it has trained, and with Options.Resume restored instead
// of trained when its record loads. A panic during the compute is recovered
// into an error.
func (r *Runner) Suite(w Workload, want ...SuiteModel) (*Suite, error) {
	var wanted [numSuiteModels]bool
	wanted[PSDelta], wanted[PSPage] = true, true
	if r.Opt.CheckpointDir != "" {
		want = AllModels
	}
	for _, m := range want {
		if m < 0 || m >= numSuiteModels {
			return nil, fmt.Errorf("experiments: unknown suite model %d", int(m))
		}
		wanted[m] = true
	}
	ls := getCell(&r.mu, r.suites, w)
	s, err := ls.data.get("experiments.SuiteData("+w.String()+")", func() (*Suite, error) {
		return r.suiteData(w)
	})
	if err != nil {
		return nil, err
	}
	return s, r.train(w, ls, s, wanted)
}

// Trained lists the models this runner has trained for w, in field order.
// Models restored from a checkpoint are not listed.
func (r *Runner) Trained(w Workload) []SuiteModel {
	ls := getCell(&r.mu, r.suites, w)
	var out []SuiteModel
	for _, m := range AllModels {
		if ls.trains[m].Load() > 0 {
			out = append(out, m)
		}
	}
	return out
}

// suiteData builds w's suite without models: the datasets extracted from
// the cached LLC streams.
func (r *Runner) suiteData(w Workload) (*Suite, error) {
	d, err := r.Data(w)
	if err != nil {
		return nil, err
	}
	cfg := r.Opt.ModelConfig()
	s := &Suite{Cfg: cfg, NumPhases: d.NumPhases}
	if s.Train, err = r.buildDataset(cfg, d.LLCTrain, nil, 0); err != nil {
		return nil, err
	}
	if s.Test, err = r.buildDataset(cfg, d.LLCTest, s.Train, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// train publishes the wanted models of s that no earlier call published. It
// claims every such model no other call is working on and obtains the claimed
// ones together (trainModels); then it waits for the rest, and claims any
// whose flight failed.
func (r *Runner) train(w Workload, ls *lazySuite, s *Suite, wanted [numSuiteModels]bool) error {
	for {
		var mine []SuiteModel
		var waits []<-chan struct{}
		for _, m := range trainOrder {
			if !wanted[m] {
				continue
			}
			if _, done, wait := ls.models[m].claim(); wait != nil {
				waits = append(waits, wait)
			} else if !done {
				mine = append(mine, m)
			}
		}
		if len(mine)+len(waits) == 0 {
			return nil
		}
		ok, err := r.trainModels(w, s, mine, ls)
		for i, m := range mine {
			ls.models[m].settle(struct{}{}, ok[i])
		}
		if err != nil {
			return err
		}
		for _, wait := range waits {
			<-wait
		}
	}
}

// trainModels builds each of ms (in trainOrder) at its constructor seed and
// publishes it into s once it holds its weights; ok[i] reports whether ms[i]
// was published. With Options.Resume a model whose checkpoint record loads
// is restored and runs no training; every other model trains, and is then
// saved to the checkpoint store (a no-op without one). A failed restore or
// save fails its model, which stays unpublished for the next call to retry.
//
// Each model is one job, and each phase-specific model one job per phase
// (models.DeltaJobs). The phase jobs start first, phase-major
// (PSPage/phase0, PSDelta/phase0, PSPage/phase1, ...), then the single
// models in ms's order: a page job starts beside a delta job rather than
// beside the other page job, which was measured slower and holds two
// page-model tapes at once, the set-up's memory peak. A job touches only its
// own (phase) model and its own tape (models.trainLoop), reads the shared
// dataset, and never toggles the process-wide grad flag, so the trained
// weights are the same bytes whatever runs beside what, and whenever it
// runs. A model is trained once all its jobs have succeeded. The jobs fan
// out over GOMAXPROCS, not Options.Workers — that bounds the sweep's cells,
// and a suite is set-up inside one cell.
func (r *Runner) trainModels(w Workload, s *Suite, ms []SuiteModel, ls *lazySuite) ([]bool, error) {
	type job struct {
		model, phase int // model indexes ms
		rank         int // start order: the phase, or NumPhases for a single model
		name         string
		run          func() error
	}
	var jobs []job
	built := make([]builtModel, len(ms))
	ok, restored := make([]bool, len(ms)), make([]bool, len(ms))
	for i, m := range ms {
		built[i] = s.newModel(m, r.Opt.Seed)
		hit, err := r.loadModel(w, m, built[i].mod)
		if err != nil {
			return ok, err // nothing published yet
		}
		if restored[i] = hit; hit {
			continue
		}
		if r.Opt.Resume {
			// A record can fail its checks after nn.Load has filled some
			// weights (one with bytes past its last parameter fills them
			// all), so the model trains from a fresh build.
			built[i] = s.newModel(m, r.Opt.Seed)
		}
		o := models.TrainOptions{
			Epochs: r.Opt.Epochs, Seed: r.Opt.Seed,
			MaxSamplesPerEpoch: r.Opt.TrainSamples, Hook: r.trainHook(),
		}
		perPhase := m == PSDelta || m == PSPage
		if perPhase {
			// Phase-specific models see only their own phase's slice of
			// each epoch; scaling the epoch count by the phase count gives
			// every per-phase model the same number of gradient steps as
			// the single-model rows.
			o.Epochs *= s.NumPhases
		}
		for p, run := range built[i].train(o) {
			j := job{model: i, phase: p, rank: s.NumPhases, name: m.String(), run: run}
			if perPhase {
				j.rank, j.name = p, fmt.Sprintf("%s/phase%d", m, p)
			}
			jobs = append(jobs, j)
		}
	}
	slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Compare(a.rank, b.rank) })
	done := make([]bool, len(jobs))
	err := forEachIndex(len(jobs), 0, func(j int) error {
		if jobs[j].phase == 0 {
			ls.trains[ms[jobs[j].model]].Add(1) // one run per model
		}
		start := time.Now()
		if err := jobs[j].run(); err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		ls.jobsMu.Lock()
		defer ls.jobsMu.Unlock()
		ls.jobs = append(ls.jobs, TrainJob{Name: jobs[j].name, Seconds: secs})
		done[j] = true
		return nil
	})
	for i := range ok {
		ok[i] = true
	}
	for j, jb := range jobs {
		ok[jb.model] = ok[jb.model] && done[j]
	}
	for i, m := range ms {
		if ok[i] && !restored[i] {
			if serr := r.saveModel(w, m, built[i].mod); serr != nil {
				ok[i], err = false, cmp.Or(err, serr)
			}
		}
		if ok[i] {
			built[i].publish()
		}
	}
	return ok, err
}

// builtModel is one suite model built at its constructor seed: the module,
// its training jobs on the suite's training set (models.DeltaJobs), and the
// store that publishes it into its field of the suite.
type builtModel struct {
	mod     nn.Module
	train   func(models.TrainOptions) []func() error
	publish func()
}

// newModel constructs model m of s at its fixed seed.
func (s *Suite) newModel(m SuiteModel, seed int64) builtModel {
	cfg, ds, P := s.Cfg, s.Train, s.NumPhases
	seed += int64(m) + 1
	switch m {
	case LSTMDelta:
		return deltaJob(ds, &s.LSTMDelta, models.NewLSTMDelta(cfg, seed))
	case AttnDelta:
		return deltaJob(ds, &s.AttnDelta, models.NewAttnDelta(cfg, seed))
	case AMMADelta:
		return deltaJob(ds, &s.AMMADelta, models.NewAMMADelta(cfg, ds.PCs, 0, seed))
	case PIDelta:
		return deltaJob(ds, &s.PIDelta, models.NewAMMADelta(cfg, ds.PCs, P, seed))
	case PSDelta:
		return deltaJob(ds, &s.PSDelta, models.NewPhaseSpecificDelta(cfg, ds.PCs, P, seed))
	case LSTMPage:
		return pageJob(ds, &s.LSTMPage, models.NewLSTMPage(cfg, ds.Pages, ds.PCs, seed))
	case AttnPage:
		return pageJob(ds, &s.AttnPage, models.NewAttnPage(cfg, ds.Pages, ds.PCs, seed))
	case AMMAPage:
		return pageJob(ds, &s.AMMAPage, models.NewAMMAPage(cfg, ds.Pages, ds.PCs, 0, seed))
	case PIPage:
		return pageJob(ds, &s.PIPage, models.NewAMMAPage(cfg, ds.Pages, ds.PCs, P, seed))
	default: // PSPage; Suite rejects any value outside the ten
		return pageJob(ds, &s.PSPage, models.NewPhaseSpecificPage(cfg, ds.Pages, ds.PCs, P, seed))
	}
}

func deltaJob[M models.DeltaModel](ds *models.Dataset, field *M, m M) builtModel {
	return builtModel{m, func(o models.TrainOptions) []func() error { return models.DeltaJobs(m, ds, o) }, func() { *field = m }}
}

func pageJob[M models.PageModel](ds *models.Dataset, field *M, m M) builtModel {
	return builtModel{m, func(o models.TrainOptions) []func() error { return models.PageJobs(m, ds, o) }, func() { *field = m }}
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
// count lands near the training budget. share supplies the vocabularies (nil
// builds them from stream); labelDistance shifts the labels into the future
// (models.DatasetOptions; 0 for the suite, 16 for Fig. 14's distance models).
func (r *Runner) buildDataset(cfg models.Config, stream []trace.Access, share *models.Dataset, labelDistance int) (*models.Dataset, error) {
	budget := r.Opt.TrainSamples * 2
	if budget <= 0 {
		budget = 3000
	}
	usable := len(stream) - cfg.HistoryT - cfg.LookForwardF
	stride := usable/budget + 1
	opt := models.DatasetOptions{Stride: stride, MaxSamples: budget, LabelDistance: labelDistance}
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
	s, err := r.Suite(w, LSTMDelta, LSTMPage, AttnDelta)
	if err != nil {
		return nil, err
	}
	T := s.Cfg.HistoryT
	mlOpt := prefetch.MLOptions{Degree: 6, Scheduler: r.batchSched}

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
		// One session per MPGraph instance; core talks to it through its
		// ModelScheduler seam (no core→prefetch dependency). Callers that
		// pre-set opt.Scheduler (the serving daemon wraps sessions with a
		// deadline-aware adapter) keep their own handle.
		opt.Scheduler = r.NewModelSession()
	}
	psDelta, psPage := s.PSDelta, s.PSPage
	if r.Opt.tier() != "" {
		tp, err := r.tierPS(w)
		if err != nil {
			return nil, err
		}
		psDelta, psPage = tp.delta, tp.page
	}
	return r.AssembleMPGraph(opt, s.Cfg.HistoryT, psDelta.Models, psPage.Models)
}

// AssembleMPGraph is the one MPGraph assembly: the controller over per-phase
// models, switched by a Soft-KSWIN detector at the runner's seed.
func (r *Runner) AssembleMPGraph(opt core.Options, historyT int, deltas []models.DeltaModel, pages []models.PageModel) (*core.MPGraph, error) {
	det := phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: r.Opt.Seed})
	return core.New(opt, historyT, det, slices.Clone(deltas), slices.Clone(pages))
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

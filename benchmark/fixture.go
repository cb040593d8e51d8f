package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// scale sizes a run. The full sizes keep every pass between half a second
// and a second and a half on two vCPUs, so a run_seconds window holds twenty
// passes or more to take the floor over; smoke is the self-test's minimum.
type scale struct {
	graphScale, traceIters, trainSamples, maxTestAccesses int
	// classicScale is sim-classic's R-MAT scale, classicIters its
	// super-step count.
	classicScale, classicIters int
	// serveSessions × serveEvents is one serve-http pass; churnSessions
	// one churn pass; replaySessions × replayEvents one replay log.
	serveSessions, serveEvents   int
	churnSessions                int
	replaySessions, replayEvents int
	// rounds is the number of set-up-then-measure rounds of a run,
	// setupTries the most set-ups timed in one round (cheap set-ups are
	// repeated until the rounds have spent two seconds on them), minPasses
	// the least number of passes of a run.
	rounds, setupTries, minPasses, probeRepeat int
}

var (
	fullScale = scale{
		graphScale: 10, traceIters: 3, trainSamples: 200, maxTestAccesses: 6000,
		classicScale: 11, classicIters: 4,
		serveSessions: 4, serveEvents: 2304,
		churnSessions:  2000,
		replaySessions: 16, replayEvents: 256,
		rounds: 3, setupTries: 3, minPasses: 3, probeRepeat: 8,
	}
	smokeScale = scale{
		graphScale: 8, traceIters: 3, trainSamples: 24, maxTestAccesses: 1200,
		classicScale: 8, classicIters: 3,
		serveSessions: 2, serveEvents: 192,
		churnSessions:  40,
		replaySessions: 4, replayEvents: 96,
		rounds: 1, setupTries: 1, minPasses: 2, probeRepeat: 1,
	}
)

// churnEvents is the length of a one-shot session; chunkEvents the events
// per request of a long-lived one (serve's default FlushEvery).
const (
	churnEvents = 12
	chunkEvents = 64
)

// mlWorkload is the trained workload every ML fixture serves.
var mlWorkload = experiments.Workload{Framework: "gpop", App: frameworks.PR, Dataset: "rmat"}

// mlFixture is a fresh experiments.Runner with its workload data and trained
// suite: the set-up of every ML workload.
type mlFixture struct {
	opt  experiments.Options
	r    *experiments.Runner
	data *experiments.WorkloadData
	suit *experiments.Suite
	// testRaw is the runner's raw test trace started at a seeded point (and
	// wrapped around), baseline its no-prefetch simulation.
	testRaw  []trace.Access
	baseline sim.Metrics
	// dataS and trainS split the set-up time (per-layer metrics).
	dataS, trainS float64

	// tiers caches tier's results and tierS their build times; only the
	// traced run and the layer probes ask for them. Sessions are opened
	// concurrently, so tierMu guards both.
	tierMu sync.Mutex
	tiers  map[string]tierModels
	tierS  map[string]float64
}

// trainSeed is Options.Seed of every ML fixture. The cost of one event is a
// property of the trained model and of the traffic: one MPGraph Operate makes
// 2 to 5 model calls (the CSTP chain stops at the first predicted page the
// PBOT does not hold), differently seeded trainings differ by 2x in cost per
// event, and so do different windows of the trace (they sit in different
// framework phases). A throughput that moved 2x with the seed would measure
// the input, not the program, and the driver requires runs on different seeds
// to agree within a metric's bound. So the model and the set of events are
// the same for every workload seed, and the seed decides where in that set
// the simulation starts (rotate) and where it is cut into client streams
// (streams): the work is the same, its alignment is not.
const trainSeed = 1

func mlOptions(sc scale, tier string, batch int) experiments.Options {
	opt := experiments.DefaultOptions()
	opt.GraphScale = sc.graphScale
	opt.TraceIterations = sc.traceIters
	opt.TrainSamples = sc.trainSamples
	opt.EvalSamples = 100
	opt.Epochs = 1
	opt.MaxTestAccesses = sc.maxTestAccesses
	opt.Seed = trainSeed
	opt.Workers = 1
	opt.F32 = tier == "f32"
	opt.Int8 = tier == "int8"
	opt.Batch = batch
	return opt
}

// newMLFixture builds the runner, the workload data and the trained suite,
// and — through Runner.MPGraph — the tier's converted or calibrated models.
// seed picks where the test trace starts.
func newMLFixture(opt experiments.Options, seed int64) (*mlFixture, error) {
	fx := &mlFixture{opt: opt, r: experiments.NewRunner(opt)}
	t0 := time.Now()
	var err error
	if fx.data, err = fx.r.Data(mlWorkload); err != nil {
		return nil, fmt.Errorf("workload data: %w", err)
	}
	t1 := time.Now()
	if fx.suit, err = fx.r.Suite(mlWorkload); err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	fx.dataS, fx.trainS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	if _, err := fx.r.MPGraph(mlWorkload, core.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("tier models: %w", err)
	}

	fx.testRaw = rotate(fx.data.TestRaw, seededShift(seed, len(fx.data.TestRaw)))
	if fx.baseline, err = fx.simulate(nil); err != nil {
		return nil, err
	}
	return fx, nil
}

// primary is the production construction of one MPGraph instance, the one
// cmd/mpgraph-serve installs as serve.Config.NewPrimary.
func (fx *mlFixture) primary(sched core.ModelScheduler) (sim.Prefetcher, error) {
	copt := core.DefaultOptions()
	copt.Scheduler = sched
	return fx.r.MPGraph(mlWorkload, copt)
}

// guard wraps pf the way Runner.Prefetchers does.
func (fx *mlFixture) guard(pf sim.Prefetcher) *prefetch.Guarded {
	return prefetch.NewGuarded(pf, prefetch.NewBO(prefetch.DefaultBOConfig()), prefetch.GuardConfig{}, fx.r.Events)
}

// simulate runs pf (nil = no prefetcher) over the test trace on a fresh
// engine.
func (fx *mlFixture) simulate(pf sim.Prefetcher) (sim.Metrics, error) {
	eng, err := sim.NewEngine(fx.opt.SimConfig(), pf)
	if err != nil {
		return sim.Metrics{}, err
	}
	return eng.Run(fx.testRaw), nil
}

// tierModels are one precision tier's per-phase predictors.
type tierModels struct {
	deltas []models.DeltaModel
	pages  []models.PageModel
}

// tier derives (once) a tier's models from the trained suite through the
// public conversion entry points, exactly as the runner does internally; the
// traced run needs them to assemble an instrumented MPGraph, and times the
// derivation (experiments.convert_f32_s / quantize_int8_s).
func (fx *mlFixture) tier(tier string) (tierModels, error) {
	fx.tierMu.Lock()
	defer fx.tierMu.Unlock()
	if tm, ok := fx.tiers[tier]; ok {
		return tm, nil
	}
	t0 := time.Now()
	var d models.DeltaModel = fx.suit.PSDelta
	var p models.PageModel = fx.suit.PSPage
	var err error
	switch tier {
	case "f32":
		d, p, err = models.ConvertSuiteF32(fx.suit.PSDelta, fx.suit.PSPage)
	case "int8":
		d, p, err = models.QuantizeSuite(fx.suit.PSDelta, fx.suit.PSPage, fx.suit.Train.Samples)
	}
	if err != nil {
		return tierModels{}, fmt.Errorf("%s tier: %w", tier, err)
	}
	tm := tierModels{
		deltas: append([]models.DeltaModel(nil), d.(*models.PhaseSpecificDelta).Models...),
		pages:  append([]models.PageModel(nil), p.(*models.PhaseSpecificPage).Models...),
	}
	if fx.tiers == nil {
		fx.tiers, fx.tierS = map[string]tierModels{}, map[string]float64{}
	}
	fx.tiers[tier], fx.tierS[tier] = tm, time.Since(t0).Seconds()
	return tm, nil
}

// assemble builds an MPGraph over a tier's models the way Runner.MPGraph
// does, with the given detector and model scheduler (nil = unbatched on the
// instance's own arena).
func (fx *mlFixture) assemble(tier string, det phasedet.Detector, sched core.ModelScheduler) (*core.MPGraph, error) {
	tm, err := fx.tier(tier)
	if err != nil {
		return nil, err
	}
	copt := core.DefaultOptions()
	copt.Scheduler = sched
	return core.New(copt, fx.suit.Cfg.HistoryT, det, tm.deltas, tm.pages)
}

func (fx *mlFixture) detector() phasedet.Detector {
	return phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: fx.opt.Seed})
}

// tracedPrimary assembles an MPGraph whose detector and model calls are
// timed, behind a timing decorator: the instrumented twin of primary. With
// sched == nil the model calls run unbatched on the timing scheduler's own
// arena; otherwise they go through sched (a batch-tier session handle).
func (fx *mlFixture) tracedPrimary(tier string, sched core.ModelScheduler, guarded bool) (*timedPrefetcher, error) {
	p := &opProbe{name: "mpgraph", every: samplePeriod("mpgraph")}
	ts := &timedSched{inner: sched, p: p}
	if sched == nil {
		ts.ctx = tensor.NewCtx()
	}
	mp, err := fx.assemble(tier, &timedDetector{inner: fx.detector(), p: p}, ts)
	if err != nil {
		return nil, err
	}
	var pf sim.Prefetcher = mp
	if guarded {
		pf = fx.guard(mp)
	}
	return &timedPrefetcher{inner: pf, p: p, mp: mp}, nil
}

// maxDegree is the CSTP bound Ds·(Dt+1) on one Operate's prefetches.
func maxDegree() int { return core.DefaultOptions().MaxTotalDegree() }

// seededShift draws the seed's starting point in a sequence of n events. It
// stays within the first eighth: where MPGraph's detector fires and how warm
// its tables are at the wrap-around move a pass's cost by up to 30 %, and the
// further the start moves the more of that a seed would bring in.
func seededShift(seed int64, n int) int {
	return rand.New(rand.NewSource(seed)).Intn(max(n/8, 1))
}

// rotate returns xs started at index k and wrapped around.
func rotate[T any](xs []T, k int) []T {
	return append(append(make([]T, 0, len(xs)), xs[k:]...), xs[:k]...)
}

// streams cuts n client streams of the given length from the workload's
// shared-LLC test stream — real graph-analytics traffic of the workload the
// suite was trained on. The streams share out the first n×events events of
// it (all of it, if that is less) evenly, behind a seeded common shift of
// less than one chunk: where a long-lived session starts in the stream moves
// its cost per event by a quarter (how long its CSTP chains run while its
// tables warm), so the seed moves the chunk boundaries and nothing more.
func (fx *mlFixture) streams(seed int64, n, events int) [][]serve.Event {
	llc := fx.data.LLCTest
	region := llc[:min(len(llc), n*events)]
	shift := seededShift(seed, min(len(region), 8*chunkEvents))
	out := make([][]serve.Event, n)
	for s := range out {
		start := shift + s*len(region)/n
		out[s] = make([]serve.Event, events)
		for i := range out[s] {
			a := region[(start+i)%len(region)]
			out[s][i] = serve.Event{Addr: a.Addr, PC: a.PC, Core: a.Core}
		}
	}
	return out
}

// llcAccesses converts the LLC test stream to the prefetcher's view, for
// the Operate-latency probes.
func (fx *mlFixture) llcAccesses(n int) []sim.LLCAccess {
	llc := fx.data.LLCTest
	out := make([]sim.LLCAccess, n)
	for i := range out {
		a := llc[i%len(llc)]
		out[i] = sim.LLCAccess{Block: trace.Block(a.Addr), PC: a.PC, Core: a.Core, Write: a.Write, Phase: a.Phase}
	}
	return out
}

// quality is the simulated gain/accuracy/coverage of one prefetcher run
// against the no-prefetch baseline, in percent.
type quality struct{ ipcGain, accuracy, coverage float64 }

func qualityOf(m, baseline sim.Metrics) quality {
	return quality{100 * m.IPCImprovement(baseline), 100 * m.Accuracy(), 100 * m.Coverage()}
}

// checkRatios validates the paper's definitions on one run's metrics.
func checkRatios(m sim.Metrics) error {
	if a, c := m.Accuracy(), m.Coverage(); a < 0 || a > 1 || c < 0 || c > 1 {
		return fmt.Errorf("%s: accuracy %.4f / coverage %.4f outside [0,1]", m.Prefetcher, a, c)
	}
	return nil
}

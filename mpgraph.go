// Package mpgraph is the public façade of the MPGraph reproduction: an
// ML-based LLC prefetcher for graph analytics (Zhang, Kannan, Prasanna —
// SC '23) together with every substrate it needs — graph generators, the
// GPOP/X-Stream/PowerGraph execution models that emit memory traces, a
// ChampSim-style multi-core cache simulator, a pure-Go neural-network stack,
// phase-transition detectors, and the baseline prefetchers it is compared
// against.
//
// The typical pipeline is:
//
//	sys := mpgraph.New(mpgraph.DefaultOptions())
//	wl := mpgraph.Workload{Framework: "gpop", App: mpgraph.PR, Dataset: "rmat"}
//	pf, _ := sys.TrainMPGraph(wl)              // phase-specific AMMA models + CSTP
//	metrics, baseline, _ := sys.Simulate(wl, pf)
//	fmt.Printf("IPC improvement: %.2f%%\n", metrics.IPCImprovement(baseline)*100)
//
// Everything the façade returns is an ordinary value from the internal
// packages, so advanced users can drop a level down: implement a custom
// sim.Prefetcher, train individual models.DeltaModel/PageModel instances, or
// drive the experiments.Runner that regenerates the paper's tables and
// figures (see cmd/mpgraph-experiments).
package mpgraph

import (
	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/graph"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// Options configures a System; it is the experiment configuration re-used as
// the library entry point (scale, datasets, training budgets).
type Options = experiments.Options

// Workload identifies one framework × application × dataset combination.
type Workload = experiments.Workload

// App names a benchmark application.
type App = frameworks.App

// Benchmark applications (Table 1 of the paper).
const (
	BFS  = frameworks.BFS
	CC   = frameworks.CC
	PR   = frameworks.PR
	SSSP = frameworks.SSSP
	TC   = frameworks.TC
)

// Prefetcher is the LLC prefetcher interface; implement it to plug a custom
// prefetcher into Simulate.
type Prefetcher = sim.Prefetcher

// ControllerOptions configures the MPGraph prefetch controller (degrees,
// inference latency, oracle-phase ablation).
type ControllerOptions = core.Options

// DefaultControllerOptions mirrors the paper's Ds=2, Dt=2 configuration.
func DefaultControllerOptions() ControllerOptions { return core.DefaultOptions() }

// Metrics is a simulation result (IPC, prefetch accuracy, coverage, ...).
type Metrics = sim.Metrics

// DefaultOptions returns the fast reduced-scale configuration.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// PaperOptions returns the paper-scale configuration (hours of compute).
func PaperOptions() Options { return experiments.PaperOptions() }

// System owns the cached pipeline: graphs, traces, captured LLC streams, and
// trained model suites.
type System struct {
	runner *experiments.Runner
}

// New builds a System.
func New(opt Options) *System {
	return &System{runner: experiments.NewRunner(opt)}
}

// Runner exposes the underlying experiment runner (tables/figures, advanced
// pipeline access).
func (s *System) Runner() *experiments.Runner { return s.runner }

// Graph generates (once) the named benchmark graph.
func (s *System) Graph(dataset string) (*graph.Graph, error) {
	return s.runner.Graph(dataset)
}

// Trace executes the workload's framework and returns its memory-access
// trace along with the algorithm result (for output validation). The trace
// is not cached: each call runs the framework again (or reloads the trace
// checkpoint).
func (s *System) Trace(w Workload) (*trace.Trace, *frameworks.Result, error) {
	return s.runner.Trace(w)
}

// TrainMPGraph trains the full MPGraph prefetcher for the workload:
// phase-specific AMMA delta and page predictors on the first-iteration LLC
// stream, assembled with a Soft-KSWIN phase detector and the CSTP controller
// at the paper's degrees (Ds=2, Dt=2).
func (s *System) TrainMPGraph(w Workload) (*core.MPGraph, error) {
	return s.runner.MPGraph(w, core.DefaultOptions())
}

// TrainMPGraphWithOptions is TrainMPGraph with custom controller options
// (degrees, inference latency, oracle phases for ablations).
func (s *System) TrainMPGraphWithOptions(w Workload, opt core.Options) (*core.MPGraph, error) {
	return s.runner.MPGraph(w, opt)
}

// Baselines builds the paper's comparison prefetchers for the workload: BO,
// ISB, Delta-LSTM, Voyager, TransFetch, and MPGraph (in that order).
func (s *System) Baselines(w Workload) ([]Prefetcher, error) {
	return s.runner.Prefetchers(w)
}

// Simulate measures a prefetcher on the workload's measured slice, after its
// warm-up, returning its metrics and the no-prefetch baseline measured the
// same way.
func (s *System) Simulate(w Workload, pf Prefetcher) (Metrics, Metrics, error) {
	return s.runner.Simulate(w, pf)
}

// Workloads enumerates the configured benchmark matrix.
func (s *System) Workloads() []Workload { return s.runner.Opt.Workloads() }

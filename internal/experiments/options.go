// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md §4). Each runner
// takes a shared Options value, builds (and caches) the workload traces, LLC
// streams, and trained model suites it needs, and prints the same rows or
// series the paper reports.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/models"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
)

// Options is the shared experiment configuration.
type Options struct {
	// Scale selects "small" (default: reduced dims/graphs, minutes) or
	// "paper" (Table 5 dims, larger graphs, hours).
	Scale string
	// Datasets to sweep (default: rmat only at small scale; all seven at
	// paper scale).
	Datasets []string
	// Apps restricts the benchmark applications (nil = all of Table 1).
	Apps []frameworks.App
	// GraphScale overrides log2(vertices) (0 = per-scale default).
	GraphScale int
	// TraceIterations is how many framework super-steps to trace
	// (iteration 1 trains, the rest test).
	TraceIterations int
	// MaxTestAccesses caps the raw test trace fed to the simulator.
	MaxTestAccesses int
	// TrainSamples caps the training dataset per model.
	TrainSamples int
	// EvalSamples caps prediction-metric evaluation.
	EvalSamples int
	// Epochs is the training epoch count.
	Epochs int
	// Seed drives everything stochastic.
	Seed int64
	// Workers bounds the sweep scheduler's worker pool (0 = GOMAXPROCS, 1 =
	// serial). Independent (workload, prefetcher) simulations fan out across
	// the pool; report output is byte-identical at any worker count. It does
	// not bound the ten training jobs inside one suite: like the tensor
	// package's row fan-out those follow GOMAXPROCS.
	Workers int
	// CheckpointDir, when non-empty, enables atomic checksummed on-disk
	// checkpoints of workload traces and trained model suites (DESIGN.md
	// §9). Saves always happen when the directory is set; loads additionally
	// require Resume, so a fresh run never silently reuses stale artifacts.
	CheckpointDir string
	// Resume loads existing checkpoints from CheckpointDir before
	// recomputing. A corrupt or stale checkpoint is treated as a cache miss
	// (logged as a degradation event), never an error.
	Resume bool
	// Injector arms the named fault-injection points (artifact-build,
	// train-epoch, sweep-worker, checkpoint-io). Nil disarms everything;
	// see resilience.ParseInjector for the -inject CLI spec grammar.
	Injector *resilience.Injector
	// DisableGuard skips the degradation guard normally wrapped around the
	// ML prefetchers in the comparison sweep (ablations and benchmarks that
	// need the bare prefetcher).
	DisableGuard bool
	// Int8 runs the MPGraph prefetcher on 8-bit weights (the paper's §6.1 /
	// Fig. 13 axis): a copy of the per-phase models is rounded once per
	// workload onto the per-channel symmetric int8 grid and Operate scores
	// the dequantised weights on the f32 kernels (DESIGN.md §10).
	Int8 bool
	// F32 runs the MPGraph prefetcher's inference on the single-precision
	// compute tier: per-phase model weights are narrowed to f32 once per
	// workload and Operate dispatches the f32 fused kernels (DESIGN.md §13).
	// Mutually exclusive with Int8 (one reduced precision at a time).
	F32 bool
	// Batch > 0 routes every ML prefetcher's model calls through one shared
	// batched-inference scheduler that fuses up to Batch concurrent requests
	// per GEMM round (prefetch.BatchScheduler). The batched kernels are
	// composition-independent, so sweep reports stay byte-identical at any
	// Batch value and worker count.
	Batch int
}

// DefaultOptions returns the small-scale configuration.
func DefaultOptions() Options {
	return Options{
		Scale:           "small",
		Datasets:        []string{"rmat"},
		TraceIterations: 6,
		MaxTestAccesses: 100_000,
		TrainSamples:    1000,
		EvalSamples:     400,
		Epochs:          2,
		Seed:            1,
	}
}

// PaperOptions returns the paper-scale configuration (slow: hours).
func PaperOptions() Options {
	return Options{
		Scale: "paper",
		Datasets: []string{
			"amazon", "google", "roadCA", "soclj", "wiki", "youtube", "rmat",
		},
		TraceIterations: 11,
		MaxTestAccesses: 2_000_000,
		TrainSamples:    20_000,
		EvalSamples:     4000,
		Epochs:          4,
		Seed:            1,
	}
}

// ModelConfig returns the model configuration for the scale.
func (o Options) ModelConfig() models.Config {
	if o.Scale == "paper" {
		c := models.PaperConfig()
		c.Seed = o.Seed
		return c
	}
	c := models.SmallConfig()
	c.Seed = o.Seed
	return c
}

// SimConfig returns the simulator configuration for the scale: Table 3 at
// paper scale; a proportionally shrunk hierarchy at small scale so the
// reduced graphs still exceed the LLC (same ratios, faster runs).
func (o Options) SimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	if o.Scale == "paper" {
		return cfg
	}
	cfg.L1Sets = 64   // 16 KB
	cfg.L2Sets = 128  // 64 KB
	cfg.LLCSets = 256 // 256 KB
	return cfg
}

// validatePrecision rejects selecting both reduced-precision engines.
func (o Options) validatePrecision() error {
	if o.F32 && o.Int8 {
		return fmt.Errorf("experiments: F32 and Int8 are mutually exclusive (pick one reduced precision)")
	}
	return nil
}

// workers resolves the scheduler's pool size: Workers, defaulting to
// GOMAXPROCS.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// graphScale returns log2(vertices) for generated graphs.
func (o Options) graphScale() int {
	if o.GraphScale > 0 {
		return o.GraphScale
	}
	if o.Scale == "paper" {
		return 15
	}
	return 12
}

// frameworkOptions returns the trace-generation options.
func (o Options) frameworkOptions() frameworks.Options {
	return frameworks.Options{
		Cores:         4,
		MaxIterations: o.TraceIterations,
		Seed:          o.Seed,
		PartitionSize: 1 << (o.graphScale() - 3),
	}
}

// Workload identifies one framework × application × dataset cell.
type Workload struct {
	Framework string
	App       frameworks.App
	Dataset   string
}

func (w Workload) String() string {
	return fmt.Sprintf("%s/%s/%s", w.Framework, w.App, w.Dataset)
}

// ParseWorkload parses the Workload String form "framework/app/dataset"
// (e.g. "gpop/pr/rmat"), validating the framework name and its app support.
// Dataset names are not validated here — the graph builder reports unknown
// datasets when the trace is built.
func ParseWorkload(s string) (Workload, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return Workload{}, fmt.Errorf("experiments: bad workload %q (want framework/app/dataset, e.g. gpop/pr/rmat)", s)
	}
	fw, err := frameworks.ByName(parts[0])
	if err != nil {
		return Workload{}, fmt.Errorf("experiments: bad workload %q: %w", s, err)
	}
	app := frameworks.App(parts[1])
	if !containsApp(fw.Apps(), app) {
		return Workload{}, fmt.Errorf("experiments: framework %s does not run app %q (supports %v)", fw.Name(), app, fw.Apps())
	}
	return Workload{Framework: fw.Name(), App: app, Dataset: parts[2]}, nil
}

// Workloads enumerates the Table 1 benchmark matrix over the configured
// datasets, honouring the Apps filter.
func (o Options) Workloads() []Workload {
	var out []Workload
	for _, fw := range frameworks.All() {
		for _, app := range fw.Apps() {
			if len(o.Apps) > 0 && !containsApp(o.Apps, app) {
				continue
			}
			for _, ds := range o.Datasets {
				out = append(out, Workload{Framework: fw.Name(), App: app, Dataset: ds})
			}
		}
	}
	return out
}

func containsApp(apps []frameworks.App, app frameworks.App) bool {
	for _, a := range apps {
		if a == app {
			return true
		}
	}
	return false
}

// section prints a report header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md §4). Each runner
// takes a shared Options value, builds (and caches) the workload traces, LLC
// streams, and trained model suites it needs, and prints the same rows or
// series the paper reports.
package experiments

import (
	"flag"
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
	// MaxTestAccesses is the length of the window of raw test accesses fed
	// to the simulator (WorkloadData.Slice).
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
	// not bound a suite's training jobs (one per model, one per phase of a
	// phase-specific model): like the tensor package's row fan-out those
	// follow GOMAXPROCS.
	Workers int
	// CheckpointDir, when non-empty, enables atomic checksummed on-disk
	// checkpoints of workload traces and of every suite model, one record
	// per model (DESIGN.md §9); with it a suite trains or restores all ten.
	// Saves always happen when the directory is set; loads additionally
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
	// Int8 runs the MPGraph prefetcher on 8-bit weights (the paper's §6.1 /
	// Fig. 13 axis): a copy of the per-phase models is rounded once per
	// workload onto the per-channel symmetric int8 grid and Operate scores
	// the dequantised weights on the f32 kernels (DESIGN.md §8).
	Int8 bool
	// F32 runs the MPGraph prefetcher's inference on the single-precision
	// compute tier: per-phase model weights are narrowed to f32 once per
	// workload and Operate dispatches the f32 fused kernels (DESIGN.md §8).
	// Mutually exclusive with Int8 (one reduced precision at a time).
	F32 bool
	// Batch > 0 sizes the batched-inference scheduler the serving sessions
	// share (prefetch.BatchScheduler): it fuses up to Batch concurrent model
	// calls per GEMM round, and Runner.NewModelSession hands out its handles.
	// The batched kernels are composition-independent, so a session's
	// predictions are byte-identical at any Batch value.
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

// ScaleOptions returns the configuration of the named scale: "small"
// (DefaultOptions) or "paper" (PaperOptions).
func ScaleOptions(scale string) (Options, error) {
	switch scale {
	case "small":
		return DefaultOptions(), nil
	case "paper":
		return PaperOptions(), nil
	}
	return Options{}, fmt.Errorf("experiments: unknown scale %q (small|paper)", scale)
}

// WorkloadFlags registers on fs the flags that name one workload and the
// options its pipeline runs under: -workload, -scale, -graph-scale,
// -trace-iterations and -seed, and with training also -train-samples and
// -epochs. The function it returns reads them once fs is parsed; a zero
// override keeps the scale's default.
func WorkloadFlags(fs *flag.FlagSet, training bool) func() (Workload, Options, error) {
	workload := fs.String("workload", "gpop/pr/rmat", "workload, as framework/app/dataset")
	scale := fs.String("scale", "small", "pipeline scale: small | paper")
	graphScale := fs.Int("graph-scale", 0, "log2 vertices override (0 = per-scale default)")
	traceIters := fs.Int("trace-iterations", 0, "framework super-steps to trace (0 = per-scale default)")
	seed := fs.Int64("seed", 1, "seed of everything stochastic")
	trainSamples, epochs := new(int), new(int)
	if training {
		fs.IntVar(trainSamples, "train-samples", 0, "training dataset cap (0 = per-scale default)")
		fs.IntVar(epochs, "epochs", 0, "training epoch count (0 = per-scale default)")
	}
	return func() (Workload, Options, error) {
		w, err := ParseWorkload(*workload)
		if err != nil {
			return w, Options{}, err
		}
		opt, err := ScaleOptions(*scale)
		if err != nil {
			return w, opt, err
		}
		opt.Datasets, opt.Seed = []string{w.Dataset}, *seed
		if *graphScale > 0 {
			opt.GraphScale = *graphScale
		}
		if *traceIters > 0 {
			opt.TraceIterations = *traceIters
		}
		if *trainSamples > 0 {
			opt.TrainSamples = *trainSamples
		}
		if *epochs > 0 {
			opt.Epochs = *epochs
		}
		return w, opt, nil
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

// tier names the reduced-precision inference tier the options select:
// "int8", "f32", or "" for the float64 reference tier.
func (o Options) tier() string {
	switch {
	case o.Int8:
		return "int8"
	case o.F32:
		return "f32"
	}
	return ""
}

// toTier returns the tier's mirrors of a phase-specific model pair: the
// weights rounded onto the per-channel int8 grid under Int8, narrowed to
// single precision under F32, and the pair itself on the float64 tier.
// Either mirror runs the f32 kernels.
func (o Options) toTier(delta *models.PhaseSpecificDelta, page *models.PhaseSpecificPage) (*models.PhaseSpecificDelta, *models.PhaseSpecificPage, error) {
	var d models.DeltaModel
	var p models.PageModel
	var err error
	switch o.tier() {
	case "int8":
		d, p, err = models.QuantizeSuite(delta, page, nil)
	case "f32":
		d, p, err = models.ConvertSuiteF32(delta, page)
	default:
		return delta, page, nil
	}
	if err != nil {
		return nil, nil, err
	}
	return d.(*models.PhaseSpecificDelta), p.(*models.PhaseSpecificPage), nil
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

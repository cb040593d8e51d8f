// Command mpgraph-experiments regenerates the paper's tables and figures
// (DESIGN.md §4 maps each experiment id to its runner).
//
// Usage:
//
//	mpgraph-experiments -list
//	mpgraph-experiments -run all
//	mpgraph-experiments -run table4,fig12 -datasets rmat,wiki -apps pr,cc
//	mpgraph-experiments -run fig12 -scale paper
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpgraph/internal/experiments"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/resilience"
)

type runner struct {
	id, desc string
	fn       func(io.Writer, *experiments.Runner) error
}

var registry = []runner{
	{"table1", "Benchmark frameworks and applications", experiments.TableFrameworks},
	{"table2", "Graph datasets", experiments.TableDatasets},
	{"table3", "Simulation parameters", experiments.TableSimParams},
	{"fig2", "PCA of accesses and PCs per phase", experiments.FigurePCA},
	{"fig3", "Page jumps in GPOP", experiments.FigurePageJumps},
	{"table4", "Phase detection P/R/F1", experiments.TablePhaseDetection},
	{"fig9", "Phase detection case study", experiments.FigureCaseStudy},
	{"table5", "AMMA configuration", experiments.TableAMMAConfig},
	{"table6", "Spatial delta prediction F1", experiments.TableDeltaPrediction},
	{"table7", "Temporal page prediction accuracy@10", experiments.TablePagePrediction},
	{"fig10", "Prefetch accuracy", experiments.FigurePrefetchAccuracy},
	{"fig11", "Prefetch coverage", experiments.FigurePrefetchCoverage},
	{"fig12", "IPC improvement", experiments.FigureIPC},
	{"fig13", "Knowledge distillation under compression", experiments.FigureDistillation},
	{"fig14", "Distance prefetching vs inference latency", experiments.FigureDistancePrefetch},
	{"table8", "Computational complexity", experiments.TableComplexity},
	{"ablation-cstp", "CSTP chaining ablation", experiments.AblationCSTP},
	{"ablation-phase", "Phase handling ablation", experiments.AblationPhases},
	{"ablation-percore", "Per-core detection (async extension)", experiments.AblationPerCore},
	{"extended", "Extended rule-based baselines", experiments.TableExtendedBaselines},
}

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		run        = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale      = flag.String("scale", "small", "experiment scale: small | paper")
		datasets   = flag.String("datasets", "", "comma-separated dataset names (default per scale)")
		apps       = flag.String("apps", "", "comma-separated apps filter (bfs,cc,pr,sssp,tc)")
		graphScale = flag.Int("graph-scale", 0, "log2 vertices override")
		seed       = flag.Int64("seed", 1, "experiment seed")
		workers    = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial); a suite's training jobs follow GOMAXPROCS, not this")
		int8Infer  = flag.Bool("int8", false, "run MPGraph on 8-bit weights (Fig. 13 precision axis: per-channel int8 grid, scored on the f32 kernels)")
		f32Infer   = flag.Bool("f32", false, "run MPGraph inference on the single-precision compute tier (weights narrowed once, f32 fused kernels)")
		out        = flag.String("out", "", "output file (default stdout)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for atomic checksummed trace/model checkpoints (empty = disabled)")
		resume     = flag.Bool("resume", false, "load matching checkpoints from -checkpoint-dir before recomputing")
		inject     = flag.String("inject", "", "fault-injection spec, e.g. 'sweep-worker:panic@2,checkpoint-io:corrupt@1' (see resilience.ParseInjector)")
		degradeLog = flag.String("degrade-log", "", "write the degradation-event log to this file (written even when a run fails)")
	)
	flag.Parse()

	if *list {
		for _, r := range registry {
			fmt.Printf("%-14s %s\n", r.id, r.desc)
		}
		return
	}

	opt, err := experiments.ScaleOptions(*scale)
	if err != nil {
		fatalf("%v", err)
	}
	opt.Seed = *seed
	opt.Workers = *workers
	opt.Int8 = *int8Infer
	opt.F32 = *f32Infer
	if *f32Infer && *int8Infer {
		fatalf("-f32 and -int8 are mutually exclusive; pick one reduced precision")
	}
	opt.CheckpointDir = *ckptDir
	opt.Resume = *resume
	inj, err := resilience.ParseInjector(*inject, *seed)
	if err != nil {
		fatalf("-inject: %v", err)
	}
	opt.Injector = inj
	if *graphScale > 0 {
		opt.GraphScale = *graphScale
	}
	if *datasets != "" {
		opt.Datasets = strings.Split(*datasets, ",")
	}
	if *apps != "" {
		for _, a := range strings.Split(*apps, ",") {
			opt.Apps = append(opt.Apps, frameworks.App(strings.TrimSpace(a)))
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create %s: %v", *out, err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	wanted := map[string]bool{}
	if *run != "all" {
		for _, id := range strings.Split(*run, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
		for id := range wanted {
			if !known(id) {
				fatalf("unknown experiment %q (use -list)", id)
			}
		}
	}

	r := experiments.NewRunner(opt)
	var runErr error
	for _, reg := range registry {
		if *run != "all" && !wanted[reg.id] {
			continue
		}
		fmt.Fprintf(os.Stderr, "[mpgraph-experiments] running %s (%s)...\n", reg.id, reg.desc)
		if err := reg.fn(w, r); err != nil {
			runErr = fmt.Errorf("%s: %w", reg.id, err)
			break
		}
	}
	// The degradation log is most valuable exactly when a run failed, so it
	// is written before the error decides the exit code.
	if *degradeLog != "" {
		if err := writeDegradeLog(*degradeLog, r); err != nil {
			fatalf("-degrade-log: %v", err)
		}
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

// writeDegradeLog dumps the runner's degradation events (recovered panics,
// quarantined prefetchers, corrupt checkpoints, injected faults) to path.
func writeDegradeLog(path string, r *experiments.Runner) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := r.Events.WriteTo(f); err != nil {
		f.Close() // the write error already reports the failure
		return err
	}
	return f.Close()
}

func known(id string) bool {
	for _, r := range registry {
		if r.id == id {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpgraph-experiments: "+format+"\n", args...)
	os.Exit(1)
}

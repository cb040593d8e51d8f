// Command mpgraph-sim runs the prefetching simulation: it replays a
// workload's test iterations (everything after iteration 1) through the
// multi-core cache hierarchy with a chosen prefetcher and reports IPC,
// prefetch accuracy, and coverage against the no-prefetch baseline. The
// simulation is experiments.Runner's, so a cell it prints is the report's.
//
// Usage:
//
//	mpgraph-sim -workload gpop/pr/rmat -prefetcher bo
//	mpgraph-sim -workload gpop/pr/rmat -prefetcher mpgraph -models pr.models
package main

import (
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/models"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
)

func main() {
	options := experiments.WorkloadFlags(flag.CommandLine, false)
	pfName := flag.String("prefetcher", "bo", "none | bo | isb | mpgraph")
	modelsPath := flag.String("models", "", "model file from mpgraph-train (for -prefetcher mpgraph)")
	latency := flag.Uint64("latency", 0, "model inference latency in cycles")
	flag.Parse()
	w, opt, err := options()
	if err != nil {
		fatalf("%v", err)
	}
	r := experiments.NewRunner(opt)

	var pf sim.Prefetcher
	switch *pfName {
	case "none":
		pf = sim.NoPrefetcher()
	case "bo":
		pf = prefetch.NewBO(prefetch.DefaultBOConfig())
	case "isb":
		pf = prefetch.NewISB(prefetch.DefaultISBConfig())
	case "mpgraph":
		if *modelsPath == "" {
			fatalf("-prefetcher mpgraph needs -models")
		}
		mf, err := os.Open(*modelsPath)
		if err != nil {
			fatalf("%v", err)
		}
		pm, err := models.LoadPrefetcherModels(mf)
		mf.Close()
		if err != nil {
			fatalf("load models: %v", err)
		}
		copt := core.DefaultOptions()
		copt.LatencyCycles = *latency
		if pf, err = r.AssembleMPGraph(copt, pm.Cfg.HistoryT, pm.DeltaModels(), pm.PageModels()); err != nil {
			fatalf("build mpgraph: %v", err)
		}
	default:
		fatalf("unknown prefetcher %q", *pfName)
	}

	m, mb, err := r.Simulate(w, pf)
	if err != nil {
		fatalf("%v", err)
	}
	d, err := r.Data(w)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("workload:    %s (warm-up [%d, %d), test accesses [%d, %d), %d ground-truth phase transitions)\n",
		w, d.Slice.WarmStart, d.Slice.Start, d.Slice.Start, d.Slice.End, d.Slice.NumTransitions())
	fmt.Printf("baseline:    IPC=%.4f LLCmiss=%d\n", mb.IPC(), mb.LLCMisses)
	fmt.Printf("%-12s IPC=%.4f (%+.2f%%) accuracy=%.2f%% coverage=%.2f%% issued=%d useful=%d late=%d\n",
		pf.Name()+":", m.IPC(), m.IPCImprovement(mb)*100,
		m.Accuracy()*100, m.Coverage()*100,
		m.PrefetchesIssued, m.UsefulPrefetches, m.LatePrefetches)
	if mp, ok := pf.(*core.MPGraph); ok {
		// Per Operate: model calls made, and the share whose chain ended at a
		// tail it had already evaluated (the rest: PBOT miss, degree budget,
		// or temporal depth).
		ops := float64(max(mp.Operates, 1))
		fmt.Printf("mpgraph:     transitions=%d switches=%d finalPhase=%d modelCalls/operate=%.2f chainSteps=%d revisits=%d (%.1f%% of operates) pbotMisses=%d budgetStops=%d\n",
			mp.Transitions, mp.Switches, mp.Phase(), float64(mp.ModelCalls)/ops, mp.ChainSteps,
			mp.Revisits, 100*float64(mp.Revisits)/ops, mp.PBOTMisses, mp.BudgetStops)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpgraph-sim: "+format+"\n", args...)
	os.Exit(1)
}

// Command mpgraph-sim runs the prefetching simulation: it replays a trace's
// test iterations (everything after iteration 1) through the multi-core
// cache hierarchy with a chosen prefetcher and reports IPC, prefetch
// accuracy, and coverage against the no-prefetch baseline.
//
// Usage:
//
//	mpgraph-sim -trace pr.trace -prefetcher bo
//	mpgraph-sim -trace pr.trace -prefetcher mpgraph -models pr.models
package main

import (
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "input trace from mpgraph-trace (required)")
		pfName     = flag.String("prefetcher", "bo", "none | bo | isb | mpgraph")
		modelsPath = flag.String("models", "", "model file from mpgraph-train (for -prefetcher mpgraph)")
		latency    = flag.Uint64("latency", 0, "model inference latency in cycles")
		maxAcc     = flag.Int("max-accesses", 500_000, "cap on simulated test accesses (0 = all)")
		seed       = flag.Int64("seed", 1, "detector seed")
	)
	flag.Parse()
	if *tracePath == "" {
		fatalf("need -trace")
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		fatalf("read trace: %v", err)
	}
	if tr.NumIterations() < 2 {
		fatalf("trace needs at least 2 iterations (1 train + tests)")
	}
	_, hi, err := tr.Iteration(0)
	if err != nil {
		fatalf("%v", err)
	}
	test := tr.Accesses[hi:]
	if *maxAcc > 0 && len(test) > *maxAcc {
		test = test[:*maxAcc]
	}

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
		opt := core.DefaultOptions()
		opt.LatencyCycles = *latency
		det := phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: *seed})
		pf, err = core.New(opt, pm.Cfg.HistoryT, det, pm.DeltaModels(), pm.PageModels())
		if err != nil {
			fatalf("build mpgraph: %v", err)
		}
	default:
		fatalf("unknown prefetcher %q", *pfName)
	}

	cfg := sim.DefaultConfig()
	base, err := sim.NewEngine(cfg, nil)
	if err != nil {
		fatalf("%v", err)
	}
	mb := base.Run(test)
	eng, err := sim.NewEngine(cfg, pf)
	if err != nil {
		fatalf("%v", err)
	}
	m := eng.Run(test)

	fmt.Printf("workload:    %s/%s (%d test accesses)\n", tr.Framework, tr.App, len(test))
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

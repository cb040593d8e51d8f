// Command mpgraph-train performs the paper's offline training step (Fig. 6):
// it trains the phase-specific AMMA delta and page predictors of one
// workload on iteration 1's shared-LLC stream, as experiments.Runner does for
// the report, and writes the deployable model artifact that mpgraph-sim
// loads.
//
// Usage:
//
//	mpgraph-train -workload gpop/pr/rmat -o pr.models
package main

import (
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/experiments"
	"mpgraph/internal/models"
)

func main() {
	options := experiments.WorkloadFlags(flag.CommandLine, true)
	out := flag.String("o", "", "output model file (required)")
	flag.Parse()
	if *out == "" {
		fatalf("need -o")
	}
	w, opt, err := options()
	if err != nil {
		fatalf("%v", err)
	}
	s, err := experiments.NewRunner(opt).Suite(w)
	if err != nil {
		fatalf("train: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dataset: %d samples, %d phases, %d pages, %d PCs\n",
		len(s.Train.Samples), s.NumPhases, s.Train.Pages.Size(), s.Train.PCs.Size())
	pm, err := models.NewPrefetcherModels(s.Train, s.PSDelta, s.PSPage)
	if err != nil {
		fatalf("%v", err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	if err := pm.Save(f); err != nil {
		fatalf("save models: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("close %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d phases)\n", *out, pm.NumPhases())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpgraph-train: "+format+"\n", args...)
	os.Exit(1)
}

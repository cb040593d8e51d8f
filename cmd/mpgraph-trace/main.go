// Command mpgraph-trace executes a graph-analytics workload under one of the
// three framework execution models and writes its memory-access trace — the
// equivalent of the paper's "framework under Pin" trace-generation step. The
// trace is experiments.Runner.Trace's, the one the report trains on and
// simulates; no LLC stream is captured.
//
// Usage:
//
//	mpgraph-trace -workload gpop/pr/rmat -o pr.trace
//	mpgraph-trace -workload gpop/pr/rmat -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/experiments"
	"mpgraph/internal/trace"
)

func main() {
	options := experiments.WorkloadFlags(flag.CommandLine, false)
	out := flag.String("o", "", "output trace file (required unless -stats)")
	stats := flag.Bool("stats", false, "print a per-phase trace summary instead of requiring -o")
	flag.Parse()
	if *out == "" && !*stats {
		fatalf("missing -o output path (or use -stats)")
	}
	w, opt, err := options()
	if err != nil {
		fatalf("%v", err)
	}
	tr, res, err := experiments.NewRunner(opt).Trace(w)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d accesses, %d iterations, converged=%v\n",
		len(tr.Accesses), res.Iterations, res.Converged)
	if *stats {
		trace.Summarize(tr).Print(os.Stdout)
	}
	if *out == "" {
		return
	}

	f, err := os.Create(*out)
	if err != nil {
		fatalf("create %s: %v", *out, err)
	}
	if err := trace.Write(f, tr); err != nil {
		fatalf("write trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("close %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpgraph-trace: "+format+"\n", args...)
	os.Exit(1)
}

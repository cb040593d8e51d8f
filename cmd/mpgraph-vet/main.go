// Command mpgraph-vet is the project's static-analysis gate: it chains the
// standard `go vet` passes with the ten MPGraph-specific analyzers
// (seededrand, errdrop, panicpolicy, addrhelpers, maporder, walltime,
// noalloc, lockcheck, golifetime, directive) and exits non-zero on any
// finding. It reports and never rewrites source. It is part of tier-1: CI
// runs it on every push (.github/workflows/ci.yml), and `make lint` runs it
// locally.
//
// Usage:
//
//	go run ./cmd/mpgraph-vet [-novet] [-list] [-json] [-out file] [-facts-dir dir] [patterns...]
//
// Patterns default to ./... and accept the usual ./dir/... forms relative
// to the module root. -novet skips the delegated `go vet` run (useful when
// iterating on one analyzer); -list prints the analyzer roster and exits.
//
// -json prints each finding as one JSON object per line (package, file,
// line, col, analyzer, message, and provenance when the analyzer recorded
// one) instead of the human format — machine-readable for editors and for
// the GitHub Actions problem matcher in .github/mpgraph-vet-matcher.json,
// whose two patterns TestProblemMatcherMatchesOutput holds to both formats.
// Findings are sorted by (package path, file, byte offset, analyzer), so
// output is byte-deterministic in both formats regardless of package load
// order.
//
// -out additionally writes the findings to a file — CI uploads it as the
// mpgraph-vet diagnostics artifact so findings are inspectable without
// re-running the job.
//
// -facts-dir exports the cross-package fact layer (internal/analysis/facts):
// one JSON file per loaded package holding its per-function summaries
// (allocation-freedom with provenance, sinks, recovery boundaries,
// injection-point literals). The files are byte-deterministic — CI runs the
// export twice and diffs the directories — and ship as an artifact next to
// vet-self.jsonl.
//
// Findings are suppressed per line by a trailing allow directive,
// "mpgraph:allow name[,name] -- reason" written right after the comment's
// slashes; the reason is mandatory and the directive analyzer enforces it
// (along with the rest of the mpgraph: vocabulary). A ./... run also
// reports an allow that names an analyzer which found nothing on its line.
// See DESIGN.md's "Static analysis" section for the invariants each
// analyzer encodes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/passes/addrhelpers"
	"mpgraph/internal/analysis/passes/directive"
	"mpgraph/internal/analysis/passes/errdrop"
	"mpgraph/internal/analysis/passes/golifetime"
	"mpgraph/internal/analysis/passes/lockcheck"
	"mpgraph/internal/analysis/passes/maporder"
	"mpgraph/internal/analysis/passes/noalloc"
	"mpgraph/internal/analysis/passes/panicpolicy"
	"mpgraph/internal/analysis/passes/seededrand"
	"mpgraph/internal/analysis/passes/walltime"
)

var suite = []*analysis.Analyzer{
	addrhelpers.Analyzer,
	directive.Analyzer,
	errdrop.Analyzer,
	golifetime.Analyzer,
	lockcheck.Analyzer,
	maporder.Analyzer,
	noalloc.Analyzer,
	panicpolicy.Analyzer,
	seededrand.Analyzer,
	walltime.Analyzer,
}

func main() {
	novet := flag.Bool("novet", false, "skip the delegated `go vet` run")
	list := flag.Bool("list", false, "print the analyzer roster and exit")
	jsonOut := flag.Bool("json", false, "print one JSON object per finding instead of the human format")
	out := flag.String("out", "", "also write findings to this file (CI artifact)")
	factsDir := flag.String("facts-dir", "", "export per-package fact files (byte-deterministic JSON) to this directory")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}

	failed := false
	if !*novet {
		vet := exec.Command("go", "vet")
		vet.Args = append(vet.Args, patterns...)
		vet.Dir = root
		vet.Stdout = os.Stdout
		vet.Stderr = os.Stderr
		if err := vet.Run(); err != nil {
			failed = true
		}
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fatal(err)
	}
	// Complete = the target set covers the whole module, the precondition
	// for reporting an allow directive that silences nothing.
	complete := false
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			complete = true
		}
	}
	opt := analysis.Options{All: loader.Loaded(), FactsDir: *factsDir, Complete: complete}

	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = io.MultiWriter(os.Stdout, f)
	}

	run := analysis.RunAnalyzers
	if *jsonOut {
		run = analysis.RunAnalyzersJSON
	}
	n, err := run(pkgs, suite, sink, opt)
	if err != nil {
		fatal(err)
	}
	if n > 0 || failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpgraph-vet:", err)
	os.Exit(2)
}

// moduleRoot walks upward from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

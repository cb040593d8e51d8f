// Package walltime flags wall-clock readings (time.Now, time.Since) whose
// values flow into run-dependent output: report rows, event-log lines,
// checkpoint fingerprints, or PRNG seeds. The repository's experiments are
// replayed byte-for-byte (TestSweepParallelMatchesSerial,
// TestCrashResumeByteIdentical), and a timestamp embedded in any of those
// surfaces makes two otherwise-identical runs differ. Latency-budget logic —
// comparing a measured duration against a deadline, as the guarded
// prefetcher does — is fine: the reading never leaves the predicate.
//
// Dataflow taint starts at every time.Now()/time.Since() call expression,
// propagates through the function's assignment chains, and reports when a
// tainted value reaches:
//
//   - an emission call (fmt.*, or an Add/Sum/Write* method — builders,
//     buffers, hashes, experiments.Table, resilience.Log);
//   - a seeding call (a Seed method or a NewSource function).
//
// Escape hatches, in preference order: inject a clock (the pattern
// prefetch.GuardConfig.Now establishes); annotate a deliberately
// wall-clocked function with //mpgraph:allow-walltime in its doc comment
// (latency telemetry paths); or suppress a single line with a trailing
// "mpgraph:allow walltime -- <reason>" directive.
package walltime

import (
	"go/ast"
	"go/types"
	"strings"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/dataflow"
)

// FuncMarker in a function's doc comment exempts the whole function.
const FuncMarker = "mpgraph:allow-walltime"

// Analyzer is the walltime pass.
var Analyzer = &analysis.Analyzer{
	Name:     "walltime",
	Doc:      "forbid time.Now/time.Since values from reaching reports, event logs, fingerprints or seeds: wall-clock output breaks run-to-run byte identity",
	Requires: []string{analysis.NeedDataflow},
	Match: func(path string) bool {
		return path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || allowsWalltime(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// allowsWalltime reports the function-level escape hatch: a doc-comment line
// containing the mpgraph:allow-walltime marker.
func allowsWalltime(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.Contains(c.Text, FuncMarker) {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	isSeed := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		obj := dataflow.Callee(info, call)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
			return false
		}
		return obj.Name() == "Now" || obj.Name() == "Since"
	}
	flow := pass.Dataflow.FuncFlow(fd)
	tainted := flow.Tainted(info, nil, isSeed)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, isSink := sinkCall(info, call)
		if !isSink {
			return true
		}
		for _, arg := range call.Args {
			if !dataflow.ExprTainted(info, arg, tainted, isSeed) {
				continue
			}
			pass.Reportf(call.Pos(),
				"wall-clock time reaches run-dependent sink %s; inject a clock or annotate the line with //mpgraph:allow walltime -- <reason>", name)
			break
		}
		return true
	})
}

// sinkCall classifies calls that persist their arguments into run-visible
// state: emissions, fingerprint writes, and PRNG seeding.
func sinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "NewSource" {
			return "seeding call " + fun.Name, true
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				switch {
				case pn.Imported().Path() == "fmt":
					return "fmt." + name, true
				case name == "NewSource":
					return "seeding call " + name, true
				}
				return "", false
			}
		}
		switch {
		case name == "Add" || name == "Sum" || strings.HasPrefix(name, "Write"):
			return "(method) " + name, true
		case name == "Seed":
			return "seeding call " + name, true
		}
	}
	return "", false
}

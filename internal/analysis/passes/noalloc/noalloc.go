// Package noalloc verifies the repository's zero-allocation inference
// surface statically. A function whose doc comment carries a
// //mpgraph:noalloc directive promises that its steady-state execution
// performs no heap allocation — the property the AllocsPerRun gates
// (internal/core and internal/prefetch zeroalloc_test.go) measure
// dynamically. The analyzer rejects, inside a marked function:
//
//   - make / new calls and conversions between string and byte/rune slices;
//   - append whose destination is not a caller-provided parameter (growing
//     a caller's buffer is the sanctioned amortised-reuse pattern; growing
//     a local escapes the arena discipline);
//   - slice or map composite literals, and address-taken composite
//     literals (value struct literals live on the stack and are allowed);
//   - string concatenation (+ or += on strings);
//   - closures that capture variables (a capturing func literal is a heap
//     object) and go statements;
//   - calls to functions that are not proven allocation-free. Every callee
//     with a body — same package or not — is judged by its cross-package
//     fact (internal/analysis/facts), computed bottom-up over the module's
//     import graph, so the serve→prefetch→models→nn→tensor hot path is
//     proven end to end rather than trusted at package edges. A finding for
//     a broken callee carries the provenance chain down to the line that
//     actually allocates. The only remaining trust is facts.StdlibNoAlloc
//     (math, math/bits, runtime, sync/atomic) and bodiless assembly stubs,
//     whose own //mpgraph:noalloc marker is their contract. Interface and
//     func-value calls cannot be resolved and are reported.
//
// The nil-receiver fallback idiom is understood: statements inside an
// `if x == nil { ... }` guard are the sanctioned allocating slow path
// (tensor.Ctx dispatch) and are skipped, as are the arguments of a direct
// panic(...) call (a terminating path — the invariant helpers' formatted
// failure messages never run in steady state). Known-amortised allocations —
// a slab's growth fallback, the one-off parallel fan-out closure in gemm —
// carry "mpgraph:allow noalloc -- <reason>" line directives, which the fact
// layer honours too. Variadic call sites and interface-value boxing are not
// modelled; AllocsPerRun remains the ground truth this analyzer
// approximates.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/dataflow"
	"mpgraph/internal/analysis/facts"
)

// Marker is the doc-comment directive that opts a function in.
const Marker = "mpgraph:noalloc"

// exemptPkgs is the closed standard-library trust set, shared with the fact
// layer. It contains no in-repo packages: module-internal callees are
// proven from their own facts, never assumed.
var exemptPkgs = facts.StdlibNoAlloc

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name:     "noalloc",
	Doc:      "verify //mpgraph:noalloc functions statically: no make/new/append-to-local/composite-literal/string-concat/capturing-closure, and every callee proven allocation-free via cross-package facts",
	Requires: []string{analysis.NeedDataflow, analysis.NeedFacts},
	Match: func(path string) bool {
		return path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasMarker(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func hasMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		// Directive style only: the line must start with the marker, so
		// prose that merely mentions //mpgraph:noalloc does not opt in.
		if c.Text == "//"+Marker || strings.HasPrefix(c.Text, "//"+Marker+" ") {
			return true
		}
	}
	return false
}

// checkFunc walks one marked function with the shared allocation scanner
// (facts.ScanAlloc — the same rules the fact layer proves every body
// against), reporting direct violations at their positions and vetting each
// remaining call site against the callee's cross-package fact.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, "%s is marked //mpgraph:noalloc but %s",
			fd.Name.Name, fmt.Sprintf(format, args...))
	}
	facts.ScanAlloc(pass.TypesInfo, pass.Pkg, fd,
		func(pos token.Pos, reason string) { report(pos, "%s", reason) },
		func(call *ast.CallExpr) { checkCall(pass, fd, call, report) })
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	obj := dataflow.Callee(pass.TypesInfo, call)
	f, ok := obj.(*types.Func)
	if !ok {
		// Func-value or otherwise unresolvable call.
		report(call.Pos(), "makes a dynamic call the analyzer cannot verify")
		return
	}
	f = f.Origin()
	pkg := f.Pkg()
	if pkg == nil {
		return // universe-scope methods (error.Error): no allocation
	}
	if fact := pass.Facts.ForFunc(f); fact != nil {
		if fact.NoAlloc {
			return
		}
		chain := pass.Facts.Chain(pkg.Path(), fact)
		d := analysis.Diagnostic{
			Pos: call.Pos(),
			Message: fmt.Sprintf("%s is marked //mpgraph:noalloc but calls %s, which is not allocation-free (%s)",
				fd.Name.Name, calleeName(pass, f), strings.Join(chain, " -> ")),
			Provenance: chain,
		}
		pass.Report(d)
		return
	}
	// No fact: the callee is outside the analysis set. Interface methods
	// land here too — their resolved *types.Func is the interface's, which
	// has no body to summarise.
	if !exemptPkgs[pkg.Path()] {
		report(call.Pos(), "calls %s.%s, which is outside the trusted no-alloc set", pkg.Name(), f.Name())
	}
}

// calleeName renders a callee for the finding message: bare symbol for
// same-package calls (matching the pre-facts message shape), qualified by
// package name otherwise.
func calleeName(pass *analysis.Pass, f *types.Func) string {
	if f.Pkg() == pass.Pkg {
		return f.Name()
	}
	return f.Pkg().Name() + "." + f.Name()
}

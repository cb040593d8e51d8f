// Package panicpolicy restricts panic to designated invariant helpers. The
// policy: exported library APIs surface failures as typed errors a caller
// can handle; panic is reserved for provable programmer-error invariants
// (shape mismatches, impossible states), and those panics must be funnelled
// through helpers whose doc comment carries the marker line
//
//	mpgraph:invariant
//
// (the internal/invariant package provides the shared ones). Funnelling
// keeps the "what is allowed to crash the process" surface small and
// greppable. A raw panic elsewhere needs an
// "mpgraph:allow panicpolicy -- <reason>" directive.
package panicpolicy

import (
	"go/ast"
	"go/types"
	"strings"

	"mpgraph/internal/analysis"
)

// Analyzer is the panicpolicy pass.
var Analyzer = &analysis.Analyzer{
	Name: "panicpolicy",
	Doc:  "restrict panic to mpgraph:invariant-marked helper functions in library packages",
	Match: func(path string) bool {
		return path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/")
	},
	Run: run,
}

// marker designates a function as an invariant helper when present in its
// doc comment.
const marker = "mpgraph:invariant"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Doc != nil && strings.Contains(fd.Doc.Text(), marker) {
				continue // designated invariant helper
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
					return true // a local function shadowing the builtin
				}
				pass.Reportf(call.Pos(), "panic outside an mpgraph:invariant helper: return a typed error or use internal/invariant")
				return true
			})
		}
	}
	return nil
}

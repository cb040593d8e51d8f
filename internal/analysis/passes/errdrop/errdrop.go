// Package errdrop flags silently discarded results in library code. A
// dropped error turns an I/O or configuration failure into a silently wrong
// experiment number, which is exactly the class of bug that makes ML
// prefetcher reproductions hard to validate. Two patterns are reported:
//
//   - a call whose result set includes an error, used as a bare statement
//     (the error vanishes without a trace);
//   - an assignment that discards an error result into _;
//   - an assignment that discards two or more results of one call into _
//     (e.g. `hit, _, _ := c.Lookup(...)`) — side-effectful APIs returning
//     several values deserve either consumption or a documented
//     "mpgraph:allow errdrop -- <reason>" directive.
//
// The fmt print family and in-memory writers (strings.Builder,
// bytes.Buffer) are exempt: their errors are definitionally nil or
// universally ignored by convention.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"mpgraph/internal/analysis"
)

// Analyzer is the errdrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "flag discarded error returns and undocumented multi-blank result discards in library code",
	Match: func(path string) bool {
		return path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if exempt(pass, call) {
					return true
				}
				if errorResultIndex(pass, call) >= 0 {
					pass.Reportf(call.Pos(), "error result of %s is dropped: handle it or assign it explicitly", calleeName(call))
				}
			case *ast.AssignStmt:
				checkAssign(pass, st)
			}
			return true
		})
	}
	return nil
}

func checkAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	// Tuple assignment from a single call: lhs_i corresponds to result i.
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		if exempt(pass, call) {
			return
		}
		tup, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
		if !ok || tup.Len() != len(st.Lhs) {
			return
		}
		blanks := 0
		for i, lhs := range st.Lhs {
			if !isBlank(lhs) {
				continue
			}
			blanks++
			if isErrorType(tup.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s is discarded into _", calleeName(call))
			}
		}
		if blanks >= 2 {
			pass.Reportf(st.Pos(), "%d of %d results of %s are discarded: consume them or justify with //mpgraph:allow errdrop -- <reason>", blanks, tup.Len(), calleeName(call))
		}
		return
	}
	// Parallel assignment: _ = expr with expr of type error.
	for i, lhs := range st.Lhs {
		if !isBlank(lhs) || i >= len(st.Rhs) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[st.Rhs[i]]
		if ok && isErrorType(tv.Type) {
			pass.Reportf(lhs.Pos(), "error value is discarded into _")
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}

// errorResultIndex returns the index of an error in the call's result
// tuple, or -1.
func errorResultIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if isErrorType(t) {
			return 0
		}
	}
	return -1
}

// exempt reports callees whose errors are ignored by universal convention.
func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// fmt.Fprintf & friends, and methods on in-memory writers.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
			return strings.HasPrefix(sel.Sel.Name, "Print") || strings.HasPrefix(sel.Sel.Name, "Fprint")
		}
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		name := recv.String()
		return name == "strings.Builder" || name == "bytes.Buffer"
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}

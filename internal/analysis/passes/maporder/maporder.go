// Package maporder flags `range` loops over maps whose iteration order can
// leak into report or checkpoint output. Go randomises map order per run,
// so any order-dependent effect in such a loop breaks the repository's two
// byte-identity invariants — reports identical at any worker count
// (TestSweepParallelMatchesSerial) and across checkpoint-resume
// (TestCrashResumeByteIdentical). The analyzer taints the loop's key and
// value variables, propagates through the body's assignment chains
// (dataflow reaching definitions), and reports when a tainted value reaches
// an order-sensitive sink:
//
//   - an emission call: fmt.Fprint*/Print*/Sprint*/Errorf/Append*, or a
//     Write*/Add method (strings.Builder, bytes.Buffer, io.Writer,
//     experiments.Table.Add, resilience.Log.Add);
//   - an append to a slice that is never subsequently passed to a
//     sort.*/slices.Sort* call in the enclosing function — collecting keys
//     is the sanctioned pattern only when they are sorted before use;
//   - a compound accumulation (+=, -=, *=) into a float, complex or string
//     variable: those operators are not associative, so the result is
//     iteration-order-dependent even when every element is visited.
//
// Integer accumulation and map-to-map copying are order-independent and not
// flagged. Deliberately order-tolerant loops carry an
// "mpgraph:allow maporder -- <reason>" directive on the `for` line.
package maporder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/dataflow"
)

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name:     "maporder",
	Doc:      "forbid map iteration order from reaching report/checkpoint output: emit, accumulate or collect-without-sort under a map range must iterate sorted keys",
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
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				checkRange(pass, fd, rs)
				return true
			})
		}
	}
	return nil
}

// checkRange analyses one range statement (any kind; non-map ranges are
// ignored).
func checkRange(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Map); !ok {
		return
	}

	// Taint the key/value loop variables and close over the body's
	// assignment chains.
	seeds := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			seeds[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			seeds[obj] = true
		}
	}
	if len(seeds) == 0 {
		return // `for range m` exposes no order-dependent values
	}
	flow := pass.Dataflow.BlockFlow(rs.Body)
	tainted := flow.Tainted(pass.TypesInfo, seeds, nil)

	info := pass.TypesInfo
	var sink string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			name, isSink := sinkCall(info, s)
			if !isSink {
				return true
			}
			for _, arg := range s.Args {
				if dataflow.ExprTainted(info, arg, tainted, nil) {
					sink = fmt.Sprintf("order-sensitive sink %s", name)
					return false
				}
			}
		case *ast.AssignStmt:
			if name, ok := unsortedAppend(pass, fd, rs, s, tainted); ok {
				sink = fmt.Sprintf("append to %q, which is never sorted afterwards", name)
				return false
			}
			if name, ok := nonAssociativeAccum(info, s, tainted); ok {
				sink = fmt.Sprintf("non-associative accumulation into %q", name)
				return false
			}
		}
		return true
	})
	if sink == "" {
		return
	}

	pass.Reportf(rs.For, "map iteration order reaches %s; iterate over sorted keys", sink)
}

// sinkCall classifies emission calls whose argument order-dependence would
// reach rendered output.
func sinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				// Package-level emission: fmt.Fprintf(w, ...), fmt.Sprintf, ...
				if pn.Imported().Path() == "fmt" {
					return "fmt." + name, true
				}
				return "", false
			}
		}
		// Method emission: builder/buffer/table/log writes.
		if name == "Add" || strings.HasPrefix(name, "Write") {
			return "(method) " + name, true
		}
	}
	return "", false
}

// unsortedAppend reports an `x = append(x, tainted...)` whose target slice
// is never handed to a sort.*/slices.Sort* call in the enclosing function.
func unsortedAppend(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, s *ast.AssignStmt, tainted map[types.Object]bool) (string, bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return "", false
	}
	lhs, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
	if !ok || lhs.Name == "_" {
		return "", false
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
		return "", false
	}
	taintedArg := false
	for _, arg := range call.Args[1:] {
		if dataflow.ExprTainted(pass.TypesInfo, arg, tainted, nil) {
			taintedArg = true
			break
		}
	}
	if !taintedArg {
		return "", false
	}
	obj := pass.TypesInfo.Uses[lhs]
	if obj == nil {
		obj = pass.TypesInfo.Defs[lhs]
	}
	if obj == nil || sortedInFunc(pass, fd, obj) {
		return "", false
	}
	return lhs.Name, true
}

// sortedInFunc reports whether obj appears as an argument to a sort.* or
// slices.* call anywhere in the function (before or after the loop — flow
// direction is not tracked; a sort anywhere is taken as the author handling
// order).
func sortedInFunc(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(pass.TypesInfo, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentionsObj(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// nonAssociativeAccum reports compound accumulation of a tainted value into
// a float/complex/string variable.
func nonAssociativeAccum(info *types.Info, s *ast.AssignStmt, tainted map[types.Object]bool) (string, bool) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return "", false
	}
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return "", false
	}
	lhs, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
	if !ok {
		return "", false
	}
	tv, ok := info.Types[s.Lhs[0]]
	if !ok {
		return "", false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return "", false
	}
	if basic.Info()&(types.IsFloat|types.IsComplex|types.IsString) == 0 {
		return "", false // integer accumulation is associative
	}
	if !dataflow.ExprTainted(info, s.Rhs[0], tainted, nil) {
		return "", false
	}
	return lhs.Name, true
}

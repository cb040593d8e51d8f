// Package dataflow is the lightweight dataflow layer under mpgraph-vet's
// order/determinism analyzers (DESIGN.md §7). It stays deliberately small —
// standard library only, no SSA — and provides exactly two facilities:
//
//   - an intra-procedural reaching-definition index (Flow): for every local
//     object, the set of expressions ever assigned to it through :=, =,
//     op-assign, var specs and range clauses, with a fixpoint taint closure
//     over those chains (Tainted / ExprTainted);
//   - a package-level call graph (Func, Callers) with deterministic edge
//     order and a transitive closure helper (Closure), so analyzers can
//     propagate function-level facts ("allocates", "reaches a sink") from
//     callees to callers without re-walking bodies.
//
// Analyzers opt in by listing analysis.NeedDataflow in Analyzer.Requires;
// the driver and the analysistest harness then populate Pass.Dataflow with
// one Info per package. Soundness posture: the layer over-approximates (a
// tainted expression anywhere in an assignment chain taints the whole
// chain, any syntactic call edge counts) and never tracks aliasing through
// pointers or containers — the analyzers built on it prefer a rare
// explained allow directive over a missed nondeterminism bug.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Info is the dataflow summary of one type-checked package.
type Info struct {
	Fset      *token.FileSet
	TypesInfo *types.Info

	// Funcs indexes every declared function and method by its type-checker
	// object.
	Funcs map[types.Object]*Func
	// Decls maps each function declaration to its summary (same values as
	// Funcs, keyed by syntax for analyzers walking files).
	Decls map[*ast.FuncDecl]*Func

	flows map[*ast.FuncDecl]*Flow
}

// Func is the call-graph node for one declared function or method.
type Func struct {
	Obj  types.Object
	Decl *ast.FuncDecl
	// Callees lists every call site in the body whose callee resolved to a
	// named function or method object (any package), in source order.
	// Calls through bare function values resolve to nil objects and are
	// recorded with a nil Obj so analyzers can treat them as unknown.
	Callees []CallSite
}

// CallSite is one syntactic call inside a function body.
type CallSite struct {
	Call *ast.CallExpr
	// Obj is the resolved callee (a *types.Func for functions, methods and
	// interface methods; a *types.Var for func-typed variables and fields;
	// nil when the callee is an anonymous expression such as an immediately
	// invoked literal).
	Obj types.Object
}

// New builds the package summary: one call-graph node per declared function.
// Reaching-definition indexes are computed lazily per function by FuncFlow.
func New(fset *token.FileSet, files []*ast.File, info *types.Info) *Info {
	in := &Info{
		Fset:      fset,
		TypesInfo: info,
		Funcs:     map[types.Object]*Func{},
		Decls:     map[*ast.FuncDecl]*Func{},
		flows:     map[*ast.FuncDecl]*Flow{},
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &Func{Obj: info.Defs[fd.Name], Decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn.Callees = append(fn.Callees, CallSite{Call: call, Obj: Callee(info, call)})
				return true
			})
			if fn.Obj != nil {
				in.Funcs[fn.Obj] = fn
			}
			in.Decls[fd] = fn
		}
	}
	return in
}

// Callee resolves a call expression to the object it invokes, unwrapping
// parentheses and generic instantiations. Returns nil for calls of anonymous
// function expressions and for builtins without objects.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return Callee(info, &ast.CallExpr{Fun: e.X})
	case *ast.IndexListExpr: // generic instantiation f[T1, T2](...)
		return Callee(info, &ast.CallExpr{Fun: e.X})
	default:
		return nil
	}
}

// Closure extends base transitively caller-ward over the same-package call
// graph: the result contains every declared function that is in base or
// calls (directly or through other declared functions) one that is. base is
// not mutated. Propagation is a deterministic fixpoint — edge and iteration
// order cannot change the resulting set.
func (in *Info) Closure(base map[types.Object]bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	for obj, v := range base {
		if v {
			out[obj] = true
		}
	}
	// Fixpoint over a package-sized graph: at most |Funcs| rounds.
	for changed := true; changed; {
		changed = false
		for obj, fn := range in.Funcs {
			if out[obj] {
				continue
			}
			for _, cs := range fn.Callees {
				if cs.Obj != nil && out[cs.Obj] {
					out[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// SortedFuncs returns the package's declared functions in source position
// order, for analyzers that must report in a stable sequence.
func (in *Info) SortedFuncs() []*Func {
	out := make([]*Func, 0, len(in.Decls))
	for _, fn := range in.Decls {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// Flow is the reaching-definition index of one function body: for every
// object assigned anywhere in the body (parameters and named results are
// included with no defining expressions), the expressions that may define
// it. Chains are flow-insensitive: an assignment anywhere in the body
// reaches every use, which over-approximates loops correctly and never
// misses a definition.
type Flow struct {
	Decl *ast.FuncDecl
	// Defs maps each assigned object to every expression assigned to it.
	Defs map[types.Object][]ast.Expr
}

// FuncFlow returns the (memoised) reaching-definition index for fd.
func (in *Info) FuncFlow(fd *ast.FuncDecl) *Flow {
	if f, ok := in.flows[fd]; ok {
		return f
	}
	f := &Flow{Decl: fd, Defs: map[types.Object][]ast.Expr{}}
	if fd.Body != nil {
		collectDefs(in.TypesInfo, fd.Body, f.Defs)
	}
	in.flows[fd] = f
	return f
}

// BlockFlow builds a reaching-definition index for an arbitrary statement
// (a loop body, a closure body) outside the per-function cache.
func (in *Info) BlockFlow(body ast.Node) *Flow {
	f := &Flow{Defs: map[types.Object][]ast.Expr{}}
	collectDefs(in.TypesInfo, body, f.Defs)
	return f
}

// collectDefs records every ident := / = / op= / var / range definition in
// the subtree.
func collectDefs(info *types.Info, root ast.Node, defs map[types.Object][]ast.Expr) {
	addDef := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || rhs == nil {
			return
		}
		defs[obj] = append(defs[obj], rhs)
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					addDef(lhs, s.Rhs[i])
				}
			} else if len(s.Rhs) == 1 {
				// Tuple assignment: every lhs is defined by the one rhs.
				for _, lhs := range s.Lhs {
					addDef(lhs, s.Rhs[0])
				}
			}
		case *ast.GenDecl:
			for _, spec := range s.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					switch {
					case len(vs.Values) == len(vs.Names):
						addDef(name, vs.Values[i])
					case len(vs.Values) == 1:
						addDef(name, vs.Values[0])
					}
				}
			}
		case *ast.RangeStmt:
			// Key and value are defined by the ranged expression.
			if s.Key != nil {
				addDef(s.Key, s.X)
			}
			if s.Value != nil {
				addDef(s.Value, s.X)
			}
		}
		return true
	})
}

// Tainted computes the fixpoint of taint over the flow's assignment chains:
// an object is tainted if it is seeded, or if any expression assigned to it
// is tainted (contains a seed expression or mentions a tainted object).
// seedObjs may be nil; isSeed may be nil.
func (f *Flow) Tainted(info *types.Info, seedObjs map[types.Object]bool, isSeed func(ast.Expr) bool) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	for obj, v := range seedObjs {
		if v {
			tainted[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, exprs := range f.Defs {
			if tainted[obj] {
				continue
			}
			for _, e := range exprs {
				if ExprTainted(info, e, tainted, isSeed) {
					tainted[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return tainted
}

// ExprTainted reports whether expr contains a seed expression or mentions a
// tainted object.
func ExprTainted(info *types.Info, expr ast.Expr, tainted map[types.Object]bool, isSeed func(ast.Expr) bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && isSeed != nil && isSeed(e) {
			found = true
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

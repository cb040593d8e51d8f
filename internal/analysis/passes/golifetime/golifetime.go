// Package golifetime enforces the two goroutine contracts the mpgraph-serve
// daemon needs from every spawn site, repo-wide:
//
//   - bounded lifetime: every `go` statement must reach a bounded-lifetime
//     sink — a sync.WaitGroup join visible in the spawning function, a
//     select (context/done-channel shutdown shape), a <-ctx.Done() receive
//     or a range over a channel in the spawned body (directly, or
//     transitively through the package call graph) — or carry an explicit
//     //mpgraph:detached -- <reason> directive on the spawn line;
//   - panic containment (absorbed from the retired goroutineguard pass,
//     now repo-wide and call-graph deep): the spawned body must route
//     panics through a resilience boundary — a call into
//     mpgraph/internal/resilience (Guard/GuardVal) or a helper whose doc
//     comment carries the "mpgraph:recovers" marker — because a panic on a
//     bare goroutine kills the whole process: no sweep report, no
//     degradation event, no checkpoint flush.
//
// Spawned function values are chased through reaching definitions and the
// call graph (internal/analysis/callgraph), so `run := func() {...}; go
// run()` and `go s.worker()` resolve like direct spawns. Calls that leave
// the package are judged by the callee's cross-package fact
// (internal/analysis/facts): a callee whose Sink fact is set satisfies the
// bounded-lifetime contract, and one whose Recovers fact is set satisfies
// the containment contract — so a serve goroutine that parks inside a
// prefetch helper's select, or recovers inside another package's guard
// wrapper, is recognised instead of flagged.
package golifetime

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/callgraph"
	"mpgraph/internal/analysis/facts"
)

// Analyzer is the golifetime pass.
var Analyzer = &analysis.Analyzer{
	Name:     "golifetime",
	Doc:      "require every go statement to reach a bounded-lifetime sink (WaitGroup join, context/done select, or //mpgraph:detached -- reason) and a panic-recovery boundary, following cross-package facts",
	Requires: []string{analysis.NeedCallGraph, analysis.NeedFacts},
	Match: func(path string) bool {
		return path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/")
	},
	Run: run,
}

// recoversMarker designates recovery-boundary helpers.
const recoversMarker = "mpgraph:recovers"

// resiliencePath is the recovery-boundary package.
const resiliencePath = "mpgraph/internal/resilience"

// detachedDirective marks a deliberately unbounded goroutine; it requires a
// " -- reason" tail (the directive analyzer flags bare ones).
const detachedDirective = "//mpgraph:detached"

func run(pass *analysis.Pass) error {
	marked := markedDecls(pass)
	for _, file := range pass.Files {
		detached := detachedLines(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			joined := hasWaitGroupJoin(pass.TypesInfo, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				c := &checker{pass: pass, marked: marked, enclosing: fd,
					seenLits: map[*ast.FuncLit]bool{}, seenNodes: map[*callgraph.Node]bool{},
					factOK: func(f *facts.FuncFact) bool { return f.Recovers }}
				if !c.spawnReaches(gs.Call, c.boundaryIn, c.boundaryNode) {
					pass.Reportf(gs.Pos(), "goroutine without a resilience boundary: route panics through resilience.Guard/GuardVal or an mpgraph:recovers helper")
				}
				line := pass.Fset.Position(gs.Pos()).Line
				if joined || detached[line] {
					return true
				}
				c = &checker{pass: pass, marked: marked, enclosing: fd,
					seenLits: map[*ast.FuncLit]bool{}, seenNodes: map[*callgraph.Node]bool{},
					factOK: func(f *facts.FuncFact) bool { return f.Sink }}
				if !c.spawnReaches(gs.Call, c.sinkIn, c.sinkNode) {
					pass.Reportf(gs.Pos(), "goroutine may outlive its spawner: no WaitGroup join in the spawning function and no context/done-channel sink in the spawned body; join it or mark the spawn //mpgraph:detached -- <reason>")
				}
				return true
			})
		}
	}
	return nil
}

// markedDecls indexes this package's mpgraph:recovers-marked functions.
func markedDecls(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || !strings.Contains(fd.Doc.Text(), recoversMarker) {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// detachedLines maps line numbers carrying a reasoned detached directive.
func detachedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, detachedDirective) {
				continue
			}
			rest := c.Text[len(detachedDirective):]
			if i := strings.Index(rest, " -- "); i >= 0 && strings.TrimSpace(rest[i+4:]) != "" {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// hasWaitGroupJoin reports a sync.WaitGroup Wait call anywhere in the
// spawning function's body — the join that bounds its goroutines.
func hasWaitGroupJoin(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
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
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok &&
			obj.Name() == "Wait" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			found = true
		}
		return !found
	})
	return found
}

// checker walks one spawned call's targets — literals through their bodies,
// named functions through the call graph — applying a predicate pair.
type checker struct {
	pass      *analysis.Pass
	marked    map[types.Object]bool
	enclosing *ast.FuncDecl
	seenLits  map[*ast.FuncLit]bool
	seenNodes map[*callgraph.Node]bool
	// factOK judges a cross-package callee by its exported fact (Sink for
	// the lifetime contract, Recovers for containment) — the only view the
	// call graph, which stops at the package boundary, does not cover.
	factOK func(*facts.FuncFact) bool
}

// factReached reports whether the call target's cross-package fact satisfies
// this checker's contract.
func (c *checker) factReached(fun ast.Expr) bool {
	f, ok := calleeObj(c.pass.TypesInfo, fun).(*types.Func)
	if !ok {
		return false
	}
	fact := c.pass.Facts.ForFunc(f)
	return fact != nil && c.factOK(fact)
}

// spawnReaches reports whether the spawned call reaches code satisfying
// inBody (syntactic check over a literal or declaration body) or nodeOK
// (per call-graph node check, e.g. marked-ness).
func (c *checker) spawnReaches(call *ast.CallExpr, inBody func(ast.Node) bool, nodeOK func(*callgraph.Node) bool) bool {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return c.visitLit(lit, inBody, nodeOK)
	}
	if c.factReached(call.Fun) {
		return true
	}
	nodes, lits := c.pass.CallGraph.ResolveCall(c.enclosing, call)
	for _, n := range nodes {
		if c.visitNode(n, inBody, nodeOK) {
			return true
		}
	}
	for _, lit := range lits {
		if c.visitLit(lit, inBody, nodeOK) {
			return true
		}
	}
	return false
}

// visitLit checks a literal body directly, then follows its calls into the
// call graph and into further literals.
func (c *checker) visitLit(lit *ast.FuncLit, inBody func(ast.Node) bool, nodeOK func(*callgraph.Node) bool) bool {
	if c.seenLits[lit] {
		return false
	}
	c.seenLits[lit] = true
	if inBody(lit.Body) {
		return true
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		nodes, lits := c.pass.CallGraph.ResolveCall(c.enclosing, call)
		for _, node := range nodes {
			if c.visitNode(node, inBody, nodeOK) {
				found = true
				return false
			}
		}
		for _, inner := range lits {
			if c.visitLit(inner, inBody, nodeOK) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// visitNode checks one declared function and everything transitively
// callable from it.
func (c *checker) visitNode(start *callgraph.Node, inBody func(ast.Node) bool, nodeOK func(*callgraph.Node) bool) bool {
	if c.seenNodes[start] {
		return false
	}
	return c.pass.CallGraph.Walk(start, func(n *callgraph.Node) bool {
		if c.seenNodes[n] {
			return false
		}
		c.seenNodes[n] = true
		if nodeOK != nil && nodeOK(n) {
			return true
		}
		return n.Decl != nil && n.Decl.Body != nil && inBody(n.Decl.Body)
	})
}

// sinkIn reports a bounded-lifetime sink in a body: a select statement, a
// receive from ctx.Done(), or a range over a channel.
func (c *checker) sinkIn(body ast.Node) bool {
	info := c.pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op != token.ARROW {
				return true
			}
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
					found = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			// A callee outside the package graph sinks if its fact says so.
			if c.factReached(x.Fun) {
				found = true
			}
		}
		return !found
	})
	return found
}

// sinkNode defers entirely to the body check.
func (c *checker) sinkNode(n *callgraph.Node) bool { return false }

// boundaryIn reports a direct call to a recovery boundary in a body.
func (c *checker) boundaryIn(body ast.Node) bool {
	info := c.pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(info, call.Fun)
		if obj == nil {
			return true
		}
		if c.marked[obj] || (obj.Pkg() != nil && obj.Pkg().Path() == resiliencePath) {
			found = true
		}
		// A callee outside the package recovers if its fact says so.
		if !found && c.factReached(call.Fun) {
			found = true
		}
		return !found
	})
	return found
}

// boundaryNode accepts marked helpers reached through the call graph.
func (c *checker) boundaryNode(n *callgraph.Node) bool { return c.marked[n.Obj] }

// calleeObj resolves a call target without the dataflow fact.
func calleeObj(info *types.Info, fun ast.Expr) types.Object {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return calleeObj(info, e.X)
	case *ast.IndexListExpr:
		return calleeObj(info, e.X)
	default:
		return nil
	}
}

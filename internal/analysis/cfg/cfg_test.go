package cfg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"mpgraph/internal/analysis/cfg"
)

// build parses one function body and returns its graph plus the means to
// find statements by source text position.
func build(t *testing.T, src string) (*cfg.Graph, *ast.FuncDecl, *token.FileSet, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := (&types.Config{}).Check("x", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	var fd *ast.FuncDecl
	for _, d := range f.Decls {
		if x, ok := d.(*ast.FuncDecl); ok && x.Name.Name == "f" {
			fd = x
			break
		}
	}
	if fd == nil {
		t.Fatal("no function f in source")
	}
	return cfg.New(fd.Body, info), fd, fset, info
}

// blockOfCall finds the block containing the call statement to the named
// function.
func blockOfCall(t *testing.T, g *cfg.Graph, fd *ast.FuncDecl, name string) *cfg.Block {
	t.Helper()
	var blk *cfg.Block
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
			blk = g.BlockFor(es)
		}
		return true
	})
	if blk == nil {
		t.Fatalf("no block for call %s", name)
	}
	return blk
}

// dominates reports whether every path from Entry to b passes through a,
// by searching for a path from Entry to b that avoids a.
func dominates(g *cfg.Graph, a, b *cfg.Block) bool {
	if a == g.Entry {
		return true
	}
	seen := map[*cfg.Block]bool{a: true, g.Entry: true}
	stack := []*cfg.Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == b {
			return false
		}
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

const branchSrc = `package x

func a() {}
func b() {}
func c() {}

func f(cond bool) {
	a()
	if cond {
		b()
		return
	}
	c()
}
`

// TestIfReturn: the then-branch returns, so c() must be reachable from a()
// but not from b(), and a() must dominate both branches.
func TestIfReturn(t *testing.T) {
	g, fd, _, _ := build(t, branchSrc)
	ba := blockOfCall(t, g, fd, "a")
	bb := blockOfCall(t, g, fd, "b")
	bc := blockOfCall(t, g, fd, "c")
	if !g.Reachable(ba, bb) || !g.Reachable(ba, bc) {
		t.Fatal("both branches must be reachable from the entry statement")
	}
	if g.Reachable(bb, bc) {
		t.Fatal("c() must not be reachable from the returning then-branch")
	}
	if !dominates(g, ba, bb) || !dominates(g, ba, bc) {
		t.Fatal("the unconditional prefix must dominate both branches")
	}
	if dominates(g, bb, bc) || dominates(g, bc, bb) {
		t.Fatal("neither branch dominates the other")
	}
	if !dominates(g, ba, g.Exit) {
		t.Fatal("the unconditional prefix must dominate Exit")
	}
	if dominates(g, bc, g.Exit) {
		t.Fatal("c() is skipped by the early return, it cannot dominate Exit")
	}
}

const loopSrc = `package x

func body() {}
func after() {}

func f(n int) {
	for i := 0; i < n; i++ {
		if i == 2 {
			break
		}
		body()
	}
	after()
}
`

// TestLoop: the loop body sits on a cycle, break reaches the after-loop
// code, and the loop does not dominate Exit via the body.
func TestLoop(t *testing.T) {
	g, fd, _, _ := build(t, loopSrc)
	bb := blockOfCall(t, g, fd, "body")
	ba := blockOfCall(t, g, fd, "after")
	if !g.Reachable(bb, bb) {
		t.Fatal("loop body must be on a cycle")
	}
	if !g.Reachable(bb, ba) {
		t.Fatal("code after the loop must be reachable from the body")
	}
	if dominates(g, bb, ba) {
		t.Fatal("a conditional loop body must not dominate the after-loop code")
	}
	if !dominates(g, ba, g.Exit) {
		t.Fatal("the after-loop statement must dominate Exit")
	}
}

const panicSrc = `package x

func a() {}
func b() {}

func f(bad bool) {
	a()
	if bad {
		panic("bad")
	}
	b()
}
`

// TestPanicEdge: an explicit panic() ends its block with an Exit edge, so
// the code after the guarded panic is not dominated by it.
func TestPanicEdge(t *testing.T) {
	g, fd, _, _ := build(t, panicSrc)
	ba := blockOfCall(t, g, fd, "a")
	bbk := blockOfCall(t, g, fd, "b")
	var panicBlk *cfg.Block
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				panicBlk = g.BlockFor(es)
			}
		}
		return true
	})
	if panicBlk == nil {
		t.Fatal("no block for panic statement")
	}
	if g.Reachable(panicBlk, bbk) {
		t.Fatal("b() must not be reachable from the panic statement")
	}
	if !g.Reachable(ba, g.Exit) || !g.Reachable(panicBlk, g.Exit) {
		t.Fatal("both the normal path and the panic must reach Exit")
	}
	if dominates(g, bbk, g.Exit) {
		t.Fatal("b() does not dominate Exit: the panic path bypasses it")
	}
}

const switchSrc = `package x

func one() {}
func two() {}
func after() {}

func f(n int) {
	switch n {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	}
	after()
}
`

// TestSwitchFallthrough: fallthrough wires case 1 into case 2's block.
func TestSwitchFallthrough(t *testing.T) {
	g, fd, _, _ := build(t, switchSrc)
	b1 := blockOfCall(t, g, fd, "one")
	b2 := blockOfCall(t, g, fd, "two")
	ba := blockOfCall(t, g, fd, "after")
	if !g.Reachable(b1, b2) {
		t.Fatal("fallthrough must connect case 1 to case 2")
	}
	if g.Reachable(b2, b1) {
		t.Fatal("cases must not be connected backwards")
	}
	if dominates(g, b2, ba) {
		t.Fatal("a tagged switch without default must not make any case dominate the join")
	}
	if !g.Reachable(b2, ba) {
		t.Fatal("the join must be reachable from case bodies")
	}
}

const labelSrc = `package x

func inner() {}
func after() {}

func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				continue outer
			}
			if j == 4 {
				break outer
			}
			inner()
		}
	}
	after()
}
`

// TestLabeledBranches: labeled continue re-enters the outer loop, labeled
// break leaves it.
func TestLabeledBranches(t *testing.T) {
	g, fd, _, _ := build(t, labelSrc)
	bi := blockOfCall(t, g, fd, "inner")
	ba := blockOfCall(t, g, fd, "after")
	if !g.Reachable(bi, bi) {
		t.Fatal("inner body must be on a cycle through the labeled loop")
	}
	if !g.Reachable(bi, ba) {
		t.Fatal("labeled break must reach the after-loop code")
	}
	if !dominates(g, ba, g.Exit) {
		t.Fatal("the after-loop statement must dominate Exit")
	}
}

const selectSrc = `package x

func recv() {}
func send() {}
func after() {}

func f(a, b chan int) {
	select {
	case <-a:
		recv()
	case b <- 1:
		send()
	}
	after()
}
`

// TestSelect: each comm clause is its own block flowing to the join.
func TestSelect(t *testing.T) {
	g, fd, _, _ := build(t, selectSrc)
	br := blockOfCall(t, g, fd, "recv")
	bs := blockOfCall(t, g, fd, "send")
	ba := blockOfCall(t, g, fd, "after")
	if g.Reachable(br, bs) || g.Reachable(bs, br) {
		t.Fatal("select arms must not flow into each other")
	}
	if !g.Reachable(br, ba) || !g.Reachable(bs, ba) {
		t.Fatal("both arms must reach the join")
	}
	if dominates(g, br, ba) || dominates(g, bs, ba) {
		t.Fatal("no single arm dominates the join")
	}
}

// TestMemoisedInfo: Info caches graphs per body.
func TestMemoisedInfo(t *testing.T) {
	_, fd, _, info := build(t, branchSrc)
	in := cfg.NewInfo(info)
	g1 := in.FuncGraph(fd.Body)
	g2 := in.FuncGraph(fd.Body)
	if g1 != g2 {
		t.Fatal("FuncGraph must memoise per body")
	}
}

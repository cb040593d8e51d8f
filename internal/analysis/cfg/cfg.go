// Package cfg builds intraprocedural control-flow graphs over ast.Stmt for
// mpgraph-vet's lock-balance analyzer, lockcheck (DESIGN.md §7). Like the
// dataflow layer it is standard-library only and deliberately structural: a
// Graph is basic blocks of ast.Node items (simple statements plus the
// condition/tag expressions of the control statements that end a block)
// connected by branch, loop, switch, select, goto and fall-through edges,
// with one synthetic Exit block that every return, explicit panic(), and
// fall-off-the-end path targets.
//
// lockcheck runs a lockset fixpoint over the Succs/Preds edges; Reachable
// answers "can this block execute after that one?".
//
// Deferred calls do not get edges (they run at every exit); instead each
// DeferStmt is kept in its block's node list, so a flow-sensitive pass sees
// exactly from which program point a deferred release is armed.
//
// Panic edges are the caller's concern by design: any function call can
// panic, so materialising an Exit edge per call would dissolve the graph.
// Passes that care (lockcheck's "released on the panic path too" rule)
// classify call-bearing nodes themselves; the graph contributes the
// explicit panic() statements, which do end their block with an Exit edge.
//
// Analyzers opt in by listing analysis.NeedCFG in Analyzer.Requires; the
// checker then populates Pass.CFG with one Info per package, and function
// graphs are built lazily and memoised per body.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Graph is the control-flow graph of one function or closure body.
type Graph struct {
	// Entry is the block control enters at; it is Blocks[0].
	Entry *Block
	// Exit is the synthetic block every return/panic/fall-off path targets.
	Exit *Block
	// Blocks lists every block, Entry first, Exit last. Unreachable blocks
	// (code after return, empty loop exits) are retained — analyzers decide
	// whether unreachable code matters.
	Blocks []*Block

	blockOf map[ast.Node]*Block
}

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes holds, in execution order, the simple statements of the block
	// plus the control expression that terminates it (an if/for condition,
	// a switch tag, a range operand, a select comm statement). DeferStmt
	// nodes appear where they arm, not where they run.
	Nodes []ast.Node
	// Succs and Preds are the flow edges, in construction order (then
	// before else, case order preserved) so analyzer output is stable.
	Succs, Preds []*Block
}

// New builds the graph for body. info may be nil; when present it is used
// to recognise calls to the panic builtin (which end their block with an
// Exit edge) even under shadowing.
func New(body *ast.BlockStmt, info *types.Info) *Graph {
	g := &Graph{blockOf: map[ast.Node]*Block{}}
	b := &builder{g: g, info: info, labels: map[string]*labelBlocks{}}
	g.Entry = b.newBlock()
	g.Exit = &Block{}
	b.cur = g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, g.Exit) // fall off the end
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// BlockFor returns the block whose Nodes contain n, or nil: statements
// nested inside a control statement map to their own blocks, and function
// literals are separate graphs.
func (g *Graph) BlockFor(n ast.Node) *Block { return g.blockOf[n] }

// Reachable reports whether to can execute after from (from == to reports
// whether from can re-execute, i.e. sits on a cycle).
func (g *Graph) Reachable(from, to *Block) bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		for _, s := range b.Succs {
			if s == to {
				return true
			}
			if !seen[s.Index] {
				seen[s.Index] = true
				if walk(s) {
					return true
				}
			}
		}
		return false
	}
	return walk(from)
}

// labelBlocks tracks the jump targets a label can name.
type labelBlocks struct {
	// target receives goto edges (and is the labeled statement's block).
	target *Block
	// brk/cont are set while the labeled loop/switch is being built.
	brk, cont *Block
}

type builder struct {
	g    *Graph
	info *types.Info
	cur  *Block

	// breaks/continues are the innermost unlabeled targets.
	breaks, continues []*Block
	labels            map[string]*labelBlocks
	// pendingLabel names the label attached to the statement about to be
	// built, so its loop registers labeled break/continue targets.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock begins a fresh block with an edge from cur.
func (b *builder) startBlock() *Block {
	nb := b.newBlock()
	b.edge(b.cur, nb)
	b.cur = nb
	return nb
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.blockOf[n] = b.cur
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock() // anything after is unreachable
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isPanic(call) {
			b.edge(b.cur, b.g.Exit)
			b.cur = b.newBlock()
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		header := b.cur
		thenB := b.newBlock()
		b.edge(header, thenB)
		b.cur = thenB
		b.stmt(s.Body)
		thenEnd := b.cur
		join := b.newBlock()
		b.edge(thenEnd, join)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(header, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(header, join)
		}
		b.cur = join
	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			b.add(s.Cond)
		}
		done := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.edge(head, done)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.pushLoop(label, done, post)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, post)
		b.popLoop(label)
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
		}
		b.edge(post, head)
		b.cur = done
	case *ast.RangeStmt:
		b.add(s.X)
		head := b.startBlock()
		done := b.newBlock()
		b.edge(head, done)
		body := b.newBlock()
		b.edge(head, body)
		b.pushLoop(label, done, head)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.popLoop(label)
		b.cur = done
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body)
	case *ast.SelectStmt:
		header := b.cur
		join := b.newBlock()
		b.pushSwitch(label, join)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(header, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, join)
		}
		b.popSwitch(label)
		if len(s.Body.List) == 0 {
			b.edge(header, join)
		}
		b.cur = join
	case *ast.LabeledStmt:
		lb := b.labelFor(s.Label.Name)
		b.edge(b.cur, lb.target)
		b.cur = lb.target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s, b.breaks, false); t != nil {
				b.edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.branchTarget(s, b.continues, true); t != nil {
				b.edge(b.cur, t)
			}
		case token.GOTO:
			if s.Label != nil {
				b.edge(b.cur, b.labelFor(s.Label.Name).target)
			}
		case token.FALLTHROUGH:
			// caseClauses wires the fall-through edge; nothing to do here.
			return
		}
		b.cur = b.newBlock() // anything after is unreachable
	case *ast.DeferStmt, *ast.GoStmt, *ast.AssignStmt, *ast.DeclStmt,
		*ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		b.add(s)
	default:
		if s != nil {
			b.add(s)
		}
	}
}

// caseClauses builds the shared switch/type-switch clause structure with
// fall-through edges.
func (b *builder) caseClauses(label string, body *ast.BlockStmt) {
	header := b.cur
	join := b.newBlock()
	b.pushSwitch(label, join)
	var blocks []*Block
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(header, blk)
		blocks = append(blocks, blk)
	}
	i := 0
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, join)
		}
		i++
	}
	b.popSwitch(label)
	if !hasDefault {
		b.edge(header, join)
	}
	b.cur = join
}

// fallsThrough reports whether a case body ends in a fallthrough statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		lb := b.labelFor(label)
		lb.brk, lb.cont = brk, cont
	}
}

func (b *builder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if label != "" {
		lb := b.labelFor(label)
		lb.brk, lb.cont = nil, nil
	}
}

func (b *builder) pushSwitch(label string, brk *Block) {
	b.breaks = append(b.breaks, brk)
	if label != "" {
		b.labelFor(label).brk = brk
	}
}

func (b *builder) popSwitch(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	if label != "" {
		b.labelFor(label).brk = nil
	}
}

// branchTarget resolves a break/continue to its block: the labeled loop's
// when a label is present, the innermost otherwise.
func (b *builder) branchTarget(s *ast.BranchStmt, stack []*Block, cont bool) *Block {
	if s.Label != nil {
		lb := b.labelFor(s.Label.Name)
		if cont {
			return lb.cont
		}
		return lb.brk
	}
	if len(stack) == 0 {
		return nil // malformed code; the type-checker rejects it anyway
	}
	return stack[len(stack)-1]
}

// labelFor returns (creating on first use, which supports forward gotos)
// the label's block record.
func (b *builder) labelFor(name string) *labelBlocks {
	lb, ok := b.labels[name]
	if !ok {
		lb = &labelBlocks{target: b.newBlock()}
		b.labels[name] = lb
	}
	return lb
}

// isPanic reports whether call invokes the panic builtin.
func (b *builder) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info == nil {
		return true
	}
	_, isBuiltin := b.info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// Info is the per-package CFG fact shared across analyzers: function and
// closure graphs built lazily and memoised by body.
type Info struct {
	info   *types.Info
	graphs map[*ast.BlockStmt]*Graph
}

// NewInfo builds an empty CFG cache for one package. info may be nil.
func NewInfo(info *types.Info) *Info {
	return &Info{info: info, graphs: map[*ast.BlockStmt]*Graph{}}
}

// FuncGraph returns the (memoised) graph for a function or closure body.
func (in *Info) FuncGraph(body *ast.BlockStmt) *Graph {
	if g, ok := in.graphs[body]; ok {
		return g
	}
	g := New(body, in.info)
	in.graphs[body] = g
	return g
}

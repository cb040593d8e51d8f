// Package lockcheck proves the mutex discipline the mpgraph-serve daemon
// will depend on: a mutex acquired on some control-flow path must be
// released on every path out of the function, including the panic edges a
// call under the lock can take. Flow is tracked over the CFG layer
// (internal/analysis/cfg) with a may-held fixpoint: block entry state is
// the union of predecessor exits, so a lock leaked on any path is found.
//
// The pass reports five shapes:
//
//   - a mutex still held on some path reaching function exit ("may not be
//     released on every path");
//   - a call made while a manually-locked mutex has no deferred unlock —
//     if the callee panics, the lock escapes the function held;
//   - double Lock of the same (textual) receiver while already held;
//   - a channel send, receive or select while any lock is held;
//   - a call into mpgraph/internal/resilience (Guard/GuardVal) or an
//     mpgraph:recovers-marked helper while any lock is held — recovery
//     boundaries run arbitrary compute and must not extend a critical
//     section.
//
// Receivers are compared textually (types.ExprString), the same
// approximation the repo's other passes use for field paths: `s.mu` in one
// function is one lock. Deliberate exceptions take an
// "mpgraph:allow lockcheck -- <reason>" directive.
package lockcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/cfg"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockcheck",
	Doc:      "require mutexes to be released on every path out of a function, including panic paths, and never held across channel or resilience boundaries",
	Requires: []string{analysis.NeedCFG},
	Match: func(path string) bool {
		return path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/")
	},
	Run: run,
}

// recoversMarker designates recovery-boundary helpers (shared with
// golifetime).
const recoversMarker = "mpgraph:recovers"

// resiliencePath is the recovery-boundary package.
const resiliencePath = "mpgraph/internal/resilience"

func run(pass *analysis.Pass) error {
	marked := markedDecls(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, marked, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, marked, lit.Body)
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

// eventKind is one lock-relevant occurrence inside a block node.
type eventKind int

const (
	evLock eventKind = iota
	evUnlock
	evDeferUnlock
	evChanOp
	evBoundary
	evCall
)

// event is one occurrence, in source order within its block.
type event struct {
	kind eventKind
	key  string // receiver render for lock/unlock events
	pos  token.Pos
	name string // callee render for evBoundary/evCall
}

// lockState is the per-key dataflow fact.
type lockState struct {
	held     bool
	deferred bool // a deferred unlock covers this key on this path
	lockPos  token.Pos
}

// checkBody analyses one function or literal body.
func checkBody(pass *analysis.Pass, marked map[types.Object]bool, body *ast.BlockStmt) {
	g := pass.CFG.FuncGraph(body)
	events := map[*cfg.Block][]event{}
	hasLock := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			evs := collect(pass, marked, n)
			for _, e := range evs {
				if e.kind == evLock {
					hasLock = true
				}
			}
			events[b] = append(events[b], evs...)
		}
	}
	if !hasLock {
		return
	}

	// May-held fixpoint: in[b] = join over preds of out[p]. Reporting is a
	// separate sweep once the states converge, so iteration count cannot
	// duplicate or reorder findings.
	in := make([]map[string]lockState, len(g.Blocks))
	out := make([]map[string]lockState, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			st := join(in, out, b)
			if !sameState(in[b.Index], st) {
				in[b.Index] = st
				changed = true
			}
			cur := cloneState(st)
			for _, e := range events[b] {
				apply(nil, cur, e, nil, nil, false)
			}
			if !sameState(out[b.Index], cur) {
				out[b.Index] = cur
				changed = true
			}
		}
	}
	reported := map[token.Pos]bool{}
	leaked := map[string]bool{} // keys already reported through the panic-call rule
	var diags []analysis.Diagnostic
	for _, b := range g.Blocks {
		cur := cloneState(in[b.Index])
		for _, e := range events[b] {
			apply(&diags, cur, e, reported, leaked, true)
		}
	}
	// Exit imbalance: a key still held (and not deferred-released) entering
	// Exit was leaked on some path.
	exit := in[g.Exit.Index]
	var keys []string
	for k := range exit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := exit[k]
		if !st.held || st.deferred || leaked[k] {
			continue
		}
		diags = append(diags, analysis.Diagnostic{
			Pos:     st.lockPos,
			Message: fmt.Sprintf("%s acquired here may not be released on every path to return", k),
		})
	}
	for _, d := range diags {
		pass.Report(d)
	}
}

// apply advances the state over one event, reporting when emit is set.
func apply(diags *[]analysis.Diagnostic, cur map[string]lockState, e event, reported map[token.Pos]bool, leaked map[string]bool, emit bool) {
	rep := func(pos token.Pos, format string, args ...any) {
		if !emit || reported[pos] {
			return
		}
		reported[pos] = true
		*diags = append(*diags, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	switch e.kind {
	case evLock:
		st := cur[e.key]
		if st.held {
			rep(e.pos, "possible double lock of %s: already held on a path reaching this Lock", e.key)
		}
		st.held, st.lockPos = true, e.pos
		cur[e.key] = st
	case evUnlock:
		delete(cur, e.key)
	case evDeferUnlock:
		if st, ok := cur[e.key]; ok {
			st.deferred = true
			cur[e.key] = st
		} else {
			// defer before the Lock (idiomatic `defer mu.Unlock()` directly
			// after Lock is the common case; defer-first is rare but legal).
			cur[e.key] = lockState{deferred: true}
		}
	case evChanOp:
		for _, k := range heldKeys(cur) {
			rep(e.pos, "%s held across a channel operation; release the lock before blocking", k)
		}
	case evBoundary:
		for _, k := range heldKeys(cur) {
			rep(e.pos, "%s held across resilience boundary %s; recovery boundaries run arbitrary compute and must not extend a critical section", k, e.name)
		}
	case evCall:
		for _, k := range heldKeys(cur) {
			if st := cur[k]; !st.deferred {
				rep(e.pos, "%s is not released if %s panics; unlock with defer or release before the call", k, e.name)
				if emit {
					leaked[k] = true
				}
			}
		}
	}
}

// heldKeys lists the currently-held keys in sorted order.
func heldKeys(cur map[string]lockState) []string {
	var keys []string
	for k, st := range cur {
		if st.held {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// join unions the predecessors' exit states: held on any path counts as
// held; the deferred cover must hold on every path the key is held on.
func join(in, out []map[string]lockState, b *cfg.Block) map[string]lockState {
	st := map[string]lockState{}
	for _, p := range b.Preds {
		po := out[p.Index]
		for k, ps := range po {
			cur, ok := st[k]
			if !ok {
				st[k] = ps
				continue
			}
			cur.held = cur.held || ps.held
			cur.deferred = cur.deferred && ps.deferred
			if cur.lockPos == token.NoPos {
				cur.lockPos = ps.lockPos
			}
			st[k] = cur
		}
	}
	return st
}

func cloneState(st map[string]lockState) map[string]lockState {
	out := make(map[string]lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

func sameState(a, b map[string]lockState) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.held != vb.held || va.deferred != vb.deferred || va.lockPos != vb.lockPos {
			return false
		}
	}
	return true
}

// collect extracts the lock-relevant events from one block node, in source
// order, without descending into nested function literals (their bodies are
// analysed as functions of their own).
func collect(pass *analysis.Pass, marked map[types.Object]bool, n ast.Node) []event {
	var evs []event
	if ds, ok := n.(*ast.DeferStmt); ok {
		// defer mu.Unlock() — or a deferred closure releasing the lock.
		if key, kind, ok := lockMethod(pass.TypesInfo, ds.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
			return []event{{kind: evDeferUnlock, key: key, pos: ds.Pos()}}
		}
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if key, kind, ok := lockMethod(pass.TypesInfo, call); ok && (kind == "Unlock" || kind == "RUnlock") {
						evs = append(evs, event{kind: evDeferUnlock, key: key, pos: ds.Pos()})
					}
				}
				return true
			})
			return evs
		}
		return nil
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			evs = append(evs, event{kind: evChanOp, pos: x.Pos()})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				evs = append(evs, event{kind: evChanOp, pos: x.Pos()})
			}
		case *ast.SelectStmt:
			evs = append(evs, event{kind: evChanOp, pos: x.Pos()})
			return false // arm bodies live in their own blocks
		case *ast.CallExpr:
			if key, kind, ok := lockMethod(pass.TypesInfo, x); ok {
				switch kind {
				case "Lock", "RLock":
					evs = append(evs, event{kind: evLock, key: key, pos: x.Pos()})
				case "Unlock", "RUnlock":
					evs = append(evs, event{kind: evUnlock, key: key, pos: x.Pos()})
				}
				return true
			}
			if name, ok := boundaryCall(pass.TypesInfo, marked, x); ok {
				evs = append(evs, event{kind: evBoundary, pos: x.Pos(), name: name})
				return true
			}
			if name, ok := mayPanicCall(pass.TypesInfo, x); ok {
				evs = append(evs, event{kind: evCall, pos: x.Pos(), name: name})
			}
		}
		return true
	})
	return evs
}

// lockMethod recognises sync.Mutex/RWMutex method calls (including through
// embedding) and returns the textual receiver key plus the method name.
func lockMethod(info *types.Info, call *ast.CallExpr) (key, kind string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj, isFunc := info.Uses[sel.Sel].(*types.Func)
	if !isFunc || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch obj.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), obj.Name(), true
	}
	return "", "", false
}

// boundaryCall recognises recovery-boundary callees: the resilience package
// or an mpgraph:recovers-marked helper.
func boundaryCall(info *types.Info, marked map[types.Object]bool, call *ast.CallExpr) (string, bool) {
	obj := callee(info, call.Fun)
	if obj == nil {
		return "", false
	}
	if marked[obj] {
		return obj.Name(), true
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == resiliencePath {
		return "resilience." + obj.Name(), true
	}
	return "", false
}

// mayPanicCall reports whether the call can panic out of the caller:
// anything but a conversion or a safe builtin. The explicit panic builtin
// counts — it is the clearest path out with the lock held.
func mayPanicCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	obj := callee(info, fun)
	switch o := obj.(type) {
	case *types.Builtin:
		switch o.Name() {
		case "panic":
			return "panic", true
		default:
			return "", false // len, cap, append, make, close, ... never unwind past the caller usefully
		}
	case *types.TypeName:
		return "", false // conversion
	case nil:
		if _, isLit := fun.(*ast.FuncLit); isLit {
			return "(func literal)", true
		}
		return types.ExprString(fun), true
	default:
		return types.ExprString(fun), true
	}
}

// callee resolves the call target like dataflow.Callee but without needing
// the dataflow fact.
func callee(info *types.Info, fun ast.Expr) types.Object {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return callee(info, e.X)
	case *ast.IndexListExpr:
		return callee(info, e.X)
	default:
		return nil
	}
}

package facts

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"mpgraph/internal/analysis/dataflow"
)

// StdlibNoAlloc is the closed set of standard-library packages whose
// functions are trusted not to allocate on the paths the kernels use. It is
// the only remaining trust list in the noalloc story: module-internal
// callees are proven from their own summaries, never assumed.
var StdlibNoAlloc = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"runtime":     true,
	"sync/atomic": true,
}

// noallocMarker mirrors the noalloc analyzer's opt-in directive.
const noallocMarker = "//mpgraph:noalloc"

// recoversMarker designates recovery-boundary helpers (golifetime).
const recoversMarker = "mpgraph:recovers"

// fnState is one function's in-flight summary during the fixpoint.
type fnState struct {
	fact *FuncFact
	decl *ast.FuncDecl
	// allocCalls are the call sites the NoAlloc obligation must vet
	// (steady-state region, allow lines excluded), in source order.
	allocCalls []*ast.CallExpr
	// behCallees are statically resolved callees, for propagating
	// Sink/Recovers.
	behCallees []*types.Func
}

// Compute summarises one package. Facts for every module dependency must
// already be in store — the driver guarantees it by visiting packages in
// topological import order — so cross-package calls resolve against final
// summaries and only the intra-package fixpoint iterates.
//
// allowNoalloc reports whether an allow directive silences
// noalloc on pos's line (nil: none does). The driver answers it from the
// same suppressions its filter applies, so a reasoned in-function allow
// keeps the function's NoAlloc fact provable.
func Compute(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *Store, allowNoalloc func(token.Pos) bool) *PackageFacts {
	allowed := func(pos token.Pos) bool { return allowNoalloc != nil && allowNoalloc(pos) }
	relPos := func(pos token.Pos) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}

	var order []*fnState
	byObj := map[*types.Func]*fnState{}
	inits := 0
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sym := Symbol(obj)
			if fd.Name.Name == "init" && fd.Recv == nil {
				// Multiple init funcs share a name; disambiguate the keys.
				// Nothing can call init, so the keys are never looked up.
				inits++
				sym = fmt.Sprintf("init#%d", inits)
			}
			st := &fnState{fact: &FuncFact{Func: sym, NoAlloc: true}, decl: fd}
			if fd.Body == nil {
				// Assembly or externally linked: no body to prove. The
				// //mpgraph:noalloc marker is the author's contract (the
				// AllocsPerRun gates measure it); everything else is
				// assumed inert.
				st.fact.NoAlloc = hasNoallocMarker(fd)
				if !st.fact.NoAlloc {
					st.fact.Reason = "has no body to analyze and no //mpgraph:noalloc marker"
				}
			} else {
				scanLeaf(info, pkg, st, allowed, relPos)
			}
			order = append(order, st)
			byObj[obj] = st
		}
	}

	resolveFn := func(call *ast.CallExpr) *types.Func {
		f, _ := dataflow.Callee(info, call).(*types.Func)
		if f != nil {
			f = f.Origin()
		}
		return f
	}
	// factFor looks up a callee's summary: intra-package from the in-flight
	// states, cross-package from the store.
	factFor := func(f *types.Func) *FuncFact {
		if st, ok := byObj[f]; ok {
			return st.fact
		}
		return store.ForFunc(f)
	}

	// Intra-package fixpoint. All facts are monotone (NoAlloc only falls,
	// Sink and Recovers only rise), so iteration terminates.
	for changed := true; changed; {
		changed = false
		for _, st := range order {
			if st.decl.Body == nil {
				continue
			}
			f := st.fact
			if f.NoAlloc {
				for _, call := range st.allocCalls {
					if broken, _, _ := allocCallBroken(resolveFn(call), factFor); broken { //mpgraph:allow errdrop -- fixpoint needs only the verdict; the provenance pass re-derives reason and via canonically
						f.NoAlloc = false
						changed = true
						break
					}
				}
			}
			for _, callee := range st.behCallees {
				cf := factFor(callee)
				if cf == nil {
					continue
				}
				if cf.Sink && !f.Sink {
					f.Sink, changed = true, true
				}
				if cf.Recovers && !f.Recovers {
					f.Recovers, changed = true, true
				}
			}
		}
	}

	// Provenance pass: for every broken obligation without a leaf reason,
	// blame the first offending call in source order — canonical regardless
	// of the fixpoint's iteration structure, so the serialised bytes are.
	for _, st := range order {
		f := st.fact
		if f.NoAlloc || f.Reason != "" || st.decl.Body == nil {
			continue
		}
		for _, call := range st.allocCalls {
			callee := resolveFn(call)
			broken, reason, via := allocCallBroken(callee, factFor)
			if !broken {
				continue
			}
			if reason != "" {
				f.Reason = reason + " at " + relPos(call.Pos())
			} else {
				f.Via = via
			}
			break
		}
		if f.Reason == "" && f.Via == "" {
			f.Reason = "unprovable for an unrecorded cause" // defensive; unreachable
		}
	}

	pf := &PackageFacts{Path: pkg.Path(), Version: Version}
	for _, st := range order {
		pf.Funcs = append(pf.Funcs, st.fact)
	}
	sort.Slice(pf.Funcs, func(i, j int) bool { return pf.Funcs[i].Func < pf.Funcs[j].Func })
	return pf
}

// allocCallBroken judges one steady-state call site against the callee's
// summary. reason is non-empty for a leaf-style breach (dynamic call,
// untrusted stdlib), via carries the "pkgpath.Symbol" of a module callee
// whose own NoAlloc failed.
func allocCallBroken(callee *types.Func, factFor func(*types.Func) *FuncFact) (broken bool, reason, via string) {
	if callee == nil {
		return true, "makes a dynamic call the analyzer cannot verify", ""
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return false, "", "" // universe scope (error.Error): no allocation
	}
	if cf := factFor(callee); cf != nil {
		if cf.NoAlloc {
			return false, "", ""
		}
		return true, "", pkg.Path() + "." + cf.Func
	}
	if StdlibNoAlloc[pkg.Path()] {
		return false, "", ""
	}
	return true, fmt.Sprintf("calls %s.%s, which is outside the trusted no-alloc set", pkg.Name(), callee.Name()), ""
}

// scanLeaf fills a function's leaf facts and call lists in two passes over
// the body: the shared ScanAlloc walk for the allocation rules, and a
// behaviour walk for the sink/recovery/injection facts.
func scanLeaf(info *types.Info, pkg *types.Package, st *fnState,
	allowed func(token.Pos) bool, relPos func(token.Pos) string) {
	f := st.fact
	fd := st.decl

	ScanAlloc(info, pkg, fd,
		func(pos token.Pos, reason string) {
			if allowed(pos) {
				return
			}
			f.NoAlloc = false
			if f.Reason == "" {
				f.Reason = reason + " at " + relPos(pos)
			}
		},
		func(call *ast.CallExpr) {
			if allowed(call.Pos()) {
				return
			}
			st.allocCalls = append(st.allocCalls, call)
		})

	if fd.Doc != nil && strings.Contains(fd.Doc.Text(), recoversMarker) {
		f.Recovers = true
	}
	fires := map[string]bool{}
	arms := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.UnaryExpr:
			// A receive from ctx.Done() (or any Done channel).
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && s.Op == token.ARROW {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
					f.Sink = true
				}
			}
		case *ast.SelectStmt:
			f.Sink = true
		case *ast.RangeStmt:
			if tv, ok := info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					f.Sink = true
				}
			}
		case *ast.CallExpr:
			if id := rootIdent(s.Fun); id != nil {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					if b.Name() == "recover" {
						f.Recovers = true
					}
					return true
				}
			}
			callee, _ := dataflow.Callee(info, s).(*types.Func)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			callee = callee.Origin()
			if isInjectionCall(callee) {
				val := "*"
				if len(s.Args) > 0 {
					if tv, ok := info.Types[s.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
						val = constant.StringVal(tv.Value)
					}
				}
				if callee.Name() == "Fire" {
					fires[val] = true
				} else {
					arms[val] = true
				}
			}
			st.behCallees = append(st.behCallees, callee)
		}
		return true
	})
	f.Fires = sortedKeys(fires)
	f.Arms = sortedKeys(arms)
}

// isInjectionCall matches the resilience injector surface by shape: a
// function named Fire, Arm, or ArmProb whose first parameter is a named
// type called Point. The shape check needs no knowledge of the resilience
// package's import path.
func isInjectionCall(f *types.Func) bool {
	switch f.Name() {
	case "Fire", "Arm", "ArmProb":
	default:
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "Point"
}

// hasNoallocMarker mirrors the noalloc analyzer's directive match: the doc
// line must start with the marker, so prose mentions do not opt in.
func hasNoallocMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == noallocMarker || strings.HasPrefix(c.Text, noallocMarker+" ") {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package analysistest is the fixture-driven test harness for mpgraph's
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest: fixture
// packages live under testdata/src/<pkg>/, and lines that should trigger a
// finding carry a trailing comment of the form
//
//	expr // want "regexp"
//
// (several "..." patterns on one line expect several findings). The harness
// type-checks each fixture against the standard library with a source
// importer, runs the analyzer, applies allow-directive suppression exactly
// as the driver does, and diffs findings against expectations. Analyzer
// Match functions are deliberately ignored so fixtures can use short
// package names.
//
// Fixtures may import each other: an import path with no dot or slash that
// names a sibling directory under testdata/src resolves to that fixture
// package, so cross-package contracts (noalloc obligation chains,
// golifetime sinks and recovery boundaries) are testable end to end. For
// analyzers that list analysis.NeedFacts, the harness computes the fact
// store over the target fixture and its fixture dependencies bottom-up,
// exactly as the driver would, and want comments in dependency files are
// honoured. One token.FileSet and one stdlib source importer are shared
// across every fixture in the test binary, so the standard library is
// type-checked once per process rather than once per fixture package.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/callgraph"
	"mpgraph/internal/analysis/cfg"
	"mpgraph/internal/analysis/dataflow"
	"mpgraph/internal/analysis/facts"
)

// wantRE matches one or more double- or backtick-quoted patterns after
// "// want".
var wantRE = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

// quotedRE extracts the individual quoted patterns from a want clause.
var quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// The FileSet and stdlib importer are process-wide: every fixture in the
// test binary shares them, so the standard library's dependency packages
// are parsed and type-checked once, not once per fixture.
var (
	sharedFset = token.NewFileSet()
	sharedStd  = importer.ForCompiler(sharedFset, "source", nil)
)

// Run checks the analyzer against every named fixture package under
// testdata/src.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := newFxLoader(testdata)
	for _, pkg := range pkgs {
		fx, err := l.load(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		checkWants(t, l, fx, analyze(t, l, fx, a))
	}
}

// fixture is one parsed and type-checked fixture package.
type fixture struct {
	name  string
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// fxLoader resolves fixture-local imports to sibling directories under
// testdata/src (memoised), delegating everything else to the shared stdlib
// source importer.
type fxLoader struct {
	testdata string
	pkgs     map[string]*fixture
	loading  map[string]bool
	// order records load completion order: a fixture's dependencies finish
	// loading before it does, so this is a topological order for free.
	order []*fixture
}

func newFxLoader(testdata string) *fxLoader {
	return &fxLoader{testdata: testdata, pkgs: map[string]*fixture{}, loading: map[string]bool{}}
}

// Import implements types.Importer.
func (l *fxLoader) Import(path string) (*types.Package, error) {
	if fixtureName(path) {
		if dir := l.dirFor(path); dir != "" {
			fx, err := l.load(path)
			if err != nil {
				return nil, err
			}
			return fx.tpkg, nil
		}
	}
	return sharedStd.Import(path)
}

// fixtureName reports whether an import path could name a fixture: a bare
// name with no separator or dot ("a", "bdep", "resilience").
func fixtureName(path string) bool {
	return !strings.ContainsAny(path, "./")
}

// dirFor returns the directory holding the named fixture, or "".
func (l *fxLoader) dirFor(name string) string {
	dir := filepath.Join(l.testdata, "src", name)
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				return dir
			}
		}
	}
	return ""
}

// load parses and type-checks one fixture package, memoised by name.
func (l *fxLoader) load(name string) (*fixture, error) {
	if fx, ok := l.pkgs[name]; ok {
		return fx, nil
	}
	if l.loading[name] {
		return nil, fmt.Errorf("analysistest: fixture import cycle through %s", name)
	}
	l.loading[name] = true
	defer delete(l.loading, name)

	dir := l.dirFor(name)
	if dir == "" {
		return nil, fmt.Errorf("analysistest: no fixture files for %s under %s", name, filepath.Join(l.testdata, "src"))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(sharedFset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysistest: no fixture files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(name, sharedFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", name, err)
	}
	fx := &fixture{name: name, files: files, tpkg: tpkg, info: info}
	l.pkgs[name] = fx
	l.order = append(l.order, fx)
	return fx, nil
}

// closure returns fx plus its transitive fixture dependencies, in load
// completion order (dependencies first).
func (l *fxLoader) closure(fx *fixture) []*fixture {
	in := map[string]bool{}
	var mark func(fx *fixture)
	mark = func(fx *fixture) {
		if in[fx.name] {
			return
		}
		in[fx.name] = true
		for _, imp := range fx.tpkg.Imports() {
			if dep, ok := l.pkgs[imp.Path()]; ok {
				mark(dep)
			}
		}
	}
	mark(fx)
	var out []*fixture
	for _, dep := range l.order {
		if in[dep.name] {
			out = append(out, dep)
		}
	}
	return out
}

// analyze runs the analyzer on the fixture and returns the filtered,
// suppression-applied diagnostics: the same view the driver prints.
// Suppressions and findings in dependency files count too.
func analyze(t *testing.T, l *fxLoader, fx *fixture, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	deps := l.closure(fx)

	var diags []analysis.Diagnostic
	pass := analysis.NewPass(a, sharedFset, fx.files, fx.tpkg, fx.info, &diags)
	if a.NeedsDataflow() {
		pass.Dataflow = dataflow.New(sharedFset, fx.files, fx.info)
	}
	if a.Needs(analysis.NeedCFG) {
		pass.CFG = cfg.NewInfo(fx.info)
	}
	if a.Needs(analysis.NeedCallGraph) {
		pass.CallGraph = callgraph.New(fx.tpkg, pass.Dataflow)
	}
	var allFiles []*ast.File
	for _, dep := range deps {
		allFiles = append(allFiles, dep.files...)
	}
	sup := analysis.CollectSuppressions(sharedFset, allFiles)
	if a.Needs(analysis.NeedFacts) {
		store := facts.NewStore()
		allowNoalloc := func(pos token.Pos) bool { return sup.Allowed(sharedFset, pos, "noalloc") }
		for _, dep := range deps {
			store.Add(facts.Compute(sharedFset, dep.files, dep.tpkg, dep.info, store, allowNoalloc))
		}
		pass.Facts = store
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, fx.name, err)
	}

	return analysis.Filter(sharedFset, diags, sup)
}

func checkWants(t *testing.T, l *fxLoader, fx *fixture, diags []analysis.Diagnostic) {
	t.Helper()
	got := map[string][]string{} // file:line -> messages
	for _, d := range diags {
		pos := sharedFset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		got[key] = append(got[key], d.Message)
	}

	var allFiles []*ast.File
	for _, dep := range l.closure(fx) {
		allFiles = append(allFiles, dep.files...)
	}
	want := wantComments(t, sharedFset, allFiles)
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		patterns := want[key]
		msgs := got[key]
		if len(msgs) != len(patterns) {
			t.Errorf("%s: want %d finding(s) %q, got %q", key, len(patterns), patterns, msgs)
			continue
		}
		for i, pat := range patterns {
			rx, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
			}
			if !rx.MatchString(msgs[i]) {
				t.Errorf("%s: finding %q does not match want %q", key, msgs[i], pat)
			}
		}
	}
	for key, msgs := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected finding(s) %q", key, msgs)
		}
	}
}

// wantComments extracts want expectations: file:line -> regexp patterns.
func wantComments(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					want[key] = append(want[key], unquote(q))
				}
			}
		}
	}
	return want
}

func unquote(q string) string {
	body := q[1 : len(q)-1]
	if q[0] == '`' {
		return body
	}
	var out strings.Builder
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' && i+1 < len(body) {
			i++
		}
		out.WriteByte(body[i])
	}
	return out.String()
}

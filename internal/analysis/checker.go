package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"slices"
	"sort"

	"mpgraph/internal/analysis/callgraph"
	"mpgraph/internal/analysis/cfg"
	"mpgraph/internal/analysis/dataflow"
	"mpgraph/internal/analysis/facts"
)

// Options tunes a driver run beyond the target list.
type Options struct {
	// All is every loaded module package — the analysis targets plus the
	// module dependencies the loader pulled in to type-check them. The
	// fact layer summarises all of them (in topological import order) so
	// cross-package obligations resolve even when the target set is a
	// slice of the module. Empty means "just the targets".
	All []*Package
	// FactsDir, when non-empty, serialises the computed fact store there:
	// one byte-deterministic JSON file per package.
	FactsDir string
	// Complete declares that the targets cover the whole module (the
	// "./..." invocation) — the precondition for the driver's report of an
	// allow directive that silences nothing.
	Complete bool
}

// Analyze applies every analyzer to every package with default options.
func Analyze(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return AnalyzeOpts(pkgs, analyzers, Options{})
}

// AnalyzeOpts applies every analyzer (honouring Match) to every package and
// returns the surviving findings: //mpgraph:allow-suppressed diagnostics are
// dropped, repeats at one position are collapsed, and the result is sorted
// globally by (package path, file, offset, analyzer) so multi-package runs
// are byte-deterministic regardless of load order. Shared facts (the
// dataflow summary, the CFG cache, the call graph) are computed once per
// package and shared across every analyzer that asks.
//
// When any analyzer lists NeedFacts, or a FactsDir is requested, the
// cross-package fact layer runs first: every package in opt.All is
// summarised in topological import order, so each package's computation
// sees its module dependencies' final facts. In a Complete run the driver
// then reports every name in an allow directive that silenced nothing on
// its line (Suppressions.Stale).
func AnalyzeOpts(pkgs []*Package, analyzers []*Analyzer, opt Options) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	all := opt.All
	if len(all) == 0 {
		all = pkgs
	}

	supByPath := map[string]Suppressions{}
	supFor := func(pkg *Package) Suppressions {
		s, ok := supByPath[pkg.Path]
		if !ok {
			s = CollectSuppressions(pkg.Fset, pkg.Files)
			supByPath[pkg.Path] = s
		}
		return s
	}

	needFacts := opt.FactsDir != ""
	for _, a := range analyzers {
		if a.Needs(NeedFacts) {
			needFacts = true
		}
	}
	var store *facts.Store
	if needFacts {
		store = facts.NewStore()
		for _, p := range topoOrder(all) {
			sup := supFor(p)
			allowNoalloc := func(pos token.Pos) bool { return sup.Allowed(p.Fset, pos, "noalloc") }
			store.Add(facts.Compute(p.Fset, p.Files, p.Types, p.Info, store, allowNoalloc))
		}
		if opt.FactsDir != "" {
			if err := store.WriteDir(opt.FactsDir); err != nil {
				return nil, fmt.Errorf("analysis: writing facts: %w", err)
			}
		}
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		var df *dataflow.Info
		var cg *callgraph.Graph
		var cf *cfg.Info
		var diags []Diagnostic
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, &diags)
			if a.NeedsDataflow() {
				if df == nil {
					df = dataflow.New(pkg.Fset, pkg.Files, pkg.Info)
				}
				pass.Dataflow = df
			}
			if a.Needs(NeedCFG) {
				if cf == nil {
					cf = cfg.NewInfo(pkg.Info)
				}
				pass.CFG = cf
			}
			if a.Needs(NeedCallGraph) {
				if cg == nil {
					cg = callgraph.New(pkg.Types, df)
				}
				pass.CallGraph = cg
			}
			if a.Needs(NeedFacts) {
				pass.Facts = store
			}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		for _, d := range Filter(pkg.Fset, diags, supFor(pkg)) {
			d.Pkg = pkg.Path
			out = append(out, d)
		}
	}

	// Every suppression has now been consulted, so a name still unused
	// silences nothing — whether its analyzer found nothing on the line or
	// does not run on the package at all. Only a whole-module run has seen
	// every finding a directive could be silencing.
	if opt.Complete {
		inSuite := func(name string) bool {
			return slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == name })
		}
		for _, pkg := range pkgs {
			for _, d := range supFor(pkg).Stale(inSuite) {
				d.Pkg = pkg.Path
				out = append(out, d)
			}
		}
	}

	if len(out) > 1 {
		fset := pkgs[0].Fset
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].Pkg != out[j].Pkg {
				return out[i].Pkg < out[j].Pkg
			}
			pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Offset != pj.Offset {
				return pi.Offset < pj.Offset
			}
			if out[i].Analyzer != out[j].Analyzer {
				return out[i].Analyzer < out[j].Analyzer
			}
			return out[i].Message < out[j].Message
		})
	}
	return out, nil
}

// topoOrder returns the packages in topological import order (dependencies
// before importers), deterministically: ties and sibling visits resolve by
// import path. Packages outside the set are ignored — Go's import graph is
// acyclic, so a simple DFS suffices.
func topoOrder(all []*Package) []*Package {
	byPath := map[string]*Package{}
	paths := make([]string, 0, len(all))
	for _, p := range all {
		if _, ok := byPath[p.Path]; !ok {
			paths = append(paths, p.Path)
		}
		byPath[p.Path] = p
	}
	sort.Strings(paths)
	visited := map[string]bool{}
	out := make([]*Package, 0, len(all))
	var visit func(p *Package)
	visit = func(p *Package) {
		if visited[p.Path] {
			return
		}
		visited[p.Path] = true
		imps := p.Types.Imports()
		deps := make([]string, 0, len(imps))
		for _, imp := range imps {
			if _, ok := byPath[imp.Path()]; ok {
				deps = append(deps, imp.Path())
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			visit(byPath[dep])
		}
		out = append(out, p)
	}
	for _, path := range paths {
		visit(byPath[path])
	}
	return out
}

// RunAnalyzers runs AnalyzeOpts and prints the findings to w in
// file:line:col style, returning the number printed. Every package shares
// the loader's FileSet, so positions from any package resolve against any
// other's.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, w io.Writer, opt Options) (int, error) {
	if len(pkgs) == 0 {
		return 0, nil
	}
	diags, err := AnalyzeOpts(pkgs, analyzers, opt)
	if len(diags) > 0 {
		fset := pkgs[0].Fset
		for _, d := range diags {
			fmt.Fprintf(w, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	return len(diags), err
}

// JSONDiagnostic is the -json wire form of one finding: one object per
// line, stable field order, no timestamps — the artifact is diffable run to
// run like every other mpgraph report.
type JSONDiagnostic struct {
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Provenance is the cross-package fact chain behind the finding
	// (outermost callee first, leaf cause last), when the analyzer
	// recorded one.
	Provenance []string `json:"provenance,omitempty"`
}

// RunAnalyzersJSON runs AnalyzeOpts and writes one JSON object per finding
// to w, returning the number written.
func RunAnalyzersJSON(pkgs []*Package, analyzers []*Analyzer, w io.Writer, opt Options) (int, error) {
	if len(pkgs) == 0 {
		return 0, nil
	}
	diags, err := AnalyzeOpts(pkgs, analyzers, opt)
	enc := json.NewEncoder(w)
	fset := pkgs[0].Fset
	for _, d := range diags {
		p := fset.Position(d.Pos)
		jd := JSONDiagnostic{
			Package:    d.Pkg,
			File:       p.Filename,
			Line:       p.Line,
			Col:        p.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Provenance: d.Provenance,
		}
		if encErr := enc.Encode(jd); encErr != nil && err == nil {
			err = encErr
		}
	}
	return len(diags), err
}

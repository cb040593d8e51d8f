// Package analysis is a self-contained reimplementation of the subset of
// golang.org/x/tools/go/analysis that mpgraph-vet needs, built on the
// standard library only (go/ast, go/types, go/importer). The repository is
// dependency-free by policy, so rather than vendoring x/tools the suite
// mirrors its Analyzer/Pass/Diagnostic API closely enough that the ten
// MPGraph analyzers could be ported to the real framework by changing
// imports.
//
// Two project-specific extensions:
//
//   - Analyzer.Match lets the driver scope an analyzer to a subset of
//     package paths (x/tools expresses this inside each analyzer; keeping it
//     in the driver lets analysistest fixtures use short package names).
//   - Suppression directives: a trailing comment whose text starts
//     "mpgraph:allow name[,name...] -- reason" silences the named
//     analyzers for that source line (grammar: ParseAllow). The reason is
//     mandatory: a bare allow reads as noise, an explained one as a
//     documented decision. A whole-module run reports every name that
//     silenced nothing (Suppressions.Stale).
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"mpgraph/internal/analysis/callgraph"
	"mpgraph/internal/analysis/cfg"
	"mpgraph/internal/analysis/dataflow"
	"mpgraph/internal/analysis/facts"
)

// Shared facts an analyzer can list in Analyzer.Requires. Facts are built
// once per package by the driver (and the analysistest harness) and shared
// across every analyzer that asks.
const (
	// NeedDataflow populates Pass.Dataflow with the package's dataflow
	// summary (reaching definitions + per-call callee resolution; see
	// internal/analysis/dataflow).
	NeedDataflow = "dataflow"
	// NeedCFG populates Pass.CFG with a memoised per-function control-flow
	// graph cache (see internal/analysis/cfg).
	NeedCFG = "cfg"
	// NeedCallGraph populates Pass.CallGraph with the package-level call
	// graph (see internal/analysis/callgraph). Implies NeedDataflow: the
	// call graph is built over the dataflow summary.
	NeedCallGraph = "callgraph"
	// NeedFacts populates Pass.Facts with the cross-package fact store
	// (see internal/analysis/facts). The driver computes facts for every
	// loaded module package in topological import order before any
	// analyzer runs, so an importer's pass always sees its dependencies'
	// final summaries.
	NeedFacts = "facts"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in allow
	// directives.
	Name string
	// Doc is the one-paragraph description shown by mpgraph-vet -help.
	Doc string
	// Requires lists the shared facts this analyzer needs the driver to
	// compute (NeedDataflow, NeedCFG, NeedCallGraph). Facts are built once
	// per package and shared across the analyzers that ask for them.
	Requires []string
	// Match optionally restricts which package paths the driver runs this
	// analyzer on. nil means every package. analysistest ignores Match so
	// fixtures can live in packages named "a" and "b".
	Match func(pkgPath string) bool
	// Run performs the check, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// Needs reports whether the analyzer listed the named fact in its
// requirements. NeedCallGraph implies NeedDataflow.
func (a *Analyzer) Needs(fact string) bool {
	for _, r := range a.Requires {
		if r == fact {
			return true
		}
		if fact == NeedDataflow && r == NeedCallGraph {
			return true
		}
	}
	return false
}

// NeedsDataflow reports whether the analyzer needs the dataflow summary,
// directly or through NeedCallGraph.
func (a *Analyzer) NeedsDataflow() bool { return a.Needs(NeedDataflow) }

// Pass carries one package's parsed and type-checked representation to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dataflow is the package's dataflow summary, populated only for
	// analyzers that list NeedDataflow (or NeedCallGraph) in Requires
	// (nil otherwise).
	Dataflow *dataflow.Info
	// CFG is the package's memoised control-flow-graph cache, populated
	// only for analyzers that list NeedCFG in Requires (nil otherwise).
	CFG *cfg.Info
	// CallGraph is the package-level call graph, populated only for
	// analyzers that list NeedCallGraph in Requires (nil otherwise).
	CallGraph *callgraph.Graph
	// Facts is the cross-package fact store, populated only for analyzers
	// that list NeedFacts in Requires (nil otherwise). It holds the final
	// summaries of this package, every module dependency, and — import
	// order permitting — the rest of the analysis set.
	Facts *facts.Store

	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// Pkg is the import path of the package the finding was reported in,
	// stamped by the driver so multi-package output can sort by
	// (package, file, offset, analyzer) independent of load order.
	Pkg string
	// Provenance optionally carries the cross-package fact chain behind
	// the finding (outermost callee first, leaf cause last), so a broken
	// obligation names the line that actually allocates or blocks. It
	// rides along in the -json output.
	Provenance []string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf records a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NewPass assembles a Pass that appends findings to out; the driver and the
// analysistest harness both build passes through it.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, out *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		report:    func(d Diagnostic) { *out = append(*out, d) },
	}
}

// allowPrefix opens every suppression directive. A directive is a comment
// whose slashes are followed, with no space, by
//
//	mpgraph:allow name[,name...] -- reason
//
// where the names are lower-case analyzer names joined by commas with no
// spaces, and the reason after " -- " is not empty. It ends where a later
// comment starts (" //"), which is how fixtures append a want clause to the
// line under test. ParseAllow is the only parser of the grammar: the
// driver, the fact layer and the directive analyzer all read allow
// directives through it.
const allowPrefix = "//mpgraph:allow"

// Errors ParseAllow reports for a comment that is an allow directive but
// breaks the grammar. Such a directive suppresses nothing.
var (
	errAllowNoNames  = errors.New("mpgraph:allow directive names no analyzers; write mpgraph:allow <name>[,<name>] followed by a reason")
	ErrAllowNoReason = errors.New("mpgraph:allow directive without a reason; append -- <why> so the suppression documents itself")
	errAllowEmbedded = errors.New("mpgraph:allow must start its comment; written after other text it suppresses nothing")
)

// ParseAllow parses one comment's text. ok is false when the comment is not
// an allow directive: it neither starts with allowPrefix (followed by a
// space or the end of the comment) nor carries one after other text. An
// allow directive returns a non-nil err when it breaks the grammar, and the
// analyzer names it cites whenever the list itself parses — a directive
// missing only its reason still has its names checked.
func ParseAllow(text string) (names []string, ok bool, err error) {
	if !strings.HasPrefix(text, allowPrefix) {
		if i := strings.Index(text, allowPrefix); i > 0 && isAllowEnd(text[i+len(allowPrefix):]) {
			return nil, true, errAllowEmbedded
		}
		return nil, false, nil
	}
	rest := text[len(allowPrefix):]
	if !isAllowEnd(rest) {
		return nil, false, nil // another verb, such as allow-walltime
	}
	if i := strings.Index(rest, " //"); i >= 0 {
		rest = rest[:i]
	}
	list, reason, hasReason := strings.Cut(rest, " --")
	list = strings.TrimPrefix(list, " ")
	if list == "" {
		return nil, true, errAllowNoNames
	}
	names = strings.Split(list, ",")
	for _, n := range names {
		if n == "" || strings.TrimLeft(n, "abcdefghijklmnopqrstuvwxyz") != "" {
			return nil, true, fmt.Errorf("malformed analyzer list %q in mpgraph:allow directive; join lower-case names with commas and no spaces", list)
		}
	}
	if !hasReason || strings.TrimSpace(reason) == "" {
		return names, true, ErrAllowNoReason
	}
	return names, true, nil
}

// isAllowEnd reports whether rest, the text after allowPrefix, ends the
// directive's verb: the comment ends or a space follows.
func isAllowEnd(rest string) bool { return rest == "" || rest[0] == ' ' }

// Suppressions indexes a package's well-formed allow directives by source
// line and records which cited analyzers each one actually silenced.
type Suppressions struct {
	sites  []*allowSite // in source order
	byLine map[lineKey]*allowSite
}

type lineKey struct {
	file string
	line int
}

type allowSite struct {
	pos   token.Pos
	names []string        // the analyzers the directive cites
	used  map[string]bool // the cited analyzers it silenced a finding of
}

// CollectSuppressions scans the files' comments for allow directives.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) Suppressions {
	sup := Suppressions{byLine: map[lineKey]*allowSite{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok, err := ParseAllow(c.Text)
				if !ok || err != nil {
					continue
				}
				pos := fset.Position(c.Pos())
				site := &allowSite{pos: c.Pos(), names: names, used: map[string]bool{}}
				sup.sites = append(sup.sites, site)
				sup.byLine[lineKey{pos.Filename, pos.Line}] = site
			}
		}
	}
	return sup
}

// Allowed reports whether the named analyzer is suppressed at pos, and
// records the directive as used when it is.
func (s Suppressions) Allowed(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	site := s.byLine[lineKey{p.Filename, p.Line}]
	if site == nil || !slices.Contains(site.names, name) {
		return false
	}
	site.used[name] = true
	return true
}

// Stale reports every name of a directive that silenced nothing, as a
// finding of that analyzer, when suite(name) says the analyzer is in the
// run's suite: the name is dead weight that would hide a future finding on
// its line. Only sound once every analyzer, and the fact layer, has
// consulted the suppressions.
func (s Suppressions) Stale(suite func(name string) bool) []Diagnostic {
	var out []Diagnostic
	for _, site := range s.sites {
		for _, name := range site.names {
			if !site.used[name] && suite(name) {
				out = append(out, Diagnostic{
					Pos:      site.pos,
					Analyzer: name,
					Message:  fmt.Sprintf("mpgraph:allow %s silences nothing on this line; delete the name", name),
				})
			}
		}
	}
	return out
}

// Filter drops suppressed diagnostics, sorts the rest by file position
// (column included, so output order is byte-deterministic), and collapses
// repeats: when several analyzers — or one analyzer run twice over shared
// syntax — report the same message at the same position, only the
// lexically-first analyzer's diagnostic survives. The multichecker's output
// is therefore itself reproducible, the property it exists to enforce.
func Filter(fset *token.FileSet, diags []Diagnostic, sup Suppressions) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if !sup.Allowed(fset, d.Pos, d.Analyzer) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if kept[i].Message != kept[j].Message {
			return kept[i].Message < kept[j].Message
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	deduped := kept[:0]
	for _, d := range kept {
		if n := len(deduped); n > 0 && deduped[n-1].Pos == d.Pos && deduped[n-1].Message == d.Message {
			continue
		}
		deduped = append(deduped, d)
	}
	return deduped
}

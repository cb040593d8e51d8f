// Package directive validates the //mpgraph: comment vocabulary itself.
// The other analyzers trust these comments — allow suppresses findings,
// detached blesses a goroutine, noalloc arms the allocation check — so a
// typo'd verb or a suppression without a reason silently weakens the whole
// suite. This pass makes the directives load-bearing:
//
//   - every suppression (allow, allow-walltime, detached) must carry a
//     " -- <reason>" tail; a bare directive reads as noise, an explained
//     one as a documented decision;
//   - an allow directive is whatever analysis.ParseAllow accepts, and this
//     pass reports everything it rejects: a name list with spaces, a
//     missing reason, an allow written after other text in its comment —
//     each of which would otherwise suppress nothing, silently;
//   - an allow may only name analyzers that exist (the Known roster, which
//     cmd/mpgraph-vet asserts matches its suite);
//   - mpgraph:recovers and mpgraph:invariant are doc-comment markers, not
//     directives: written without a space they are directive-style
//     comments that go/ast strips from the doc text, making the marker
//     invisible to the passes that look for it;
//   - unknown verbs are reported instead of being ignored.
package directive

import (
	"errors"
	"go/ast"
	"strings"

	"mpgraph/internal/analysis"
)

// Known is the roster of analyzer names an allow directive may cite.
// cmd/mpgraph-vet tests that this list matches the registered suite,
// so a new analyzer cannot ship without becoming suppressible-by-name.
var Known = []string{
	"addrhelpers",
	"directive",
	"errdrop",
	"golifetime",
	"lockcheck",
	"maporder",
	"noalloc",
	"panicpolicy",
	"seededrand",
	"walltime",
}

// Analyzer is the directive pass.
var Analyzer = &analysis.Analyzer{
	Name: "directive",
	Doc:  "validate //mpgraph: directives: known verbs, allows that start their comment and name real analyzers joined by commas, a mandatory -- reason on every suppression, and space-form doc markers",
	Run:  run,
}

const prefix = "//mpgraph:"

func run(pass *analysis.Pass) error {
	known := map[string]bool{}
	for _, n := range Known {
		known[n] = true
	}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if names, ok, err := analysis.ParseAllow(c.Text); ok {
					checkAllow(pass, c, names, err, known)
				} else if strings.HasPrefix(c.Text, prefix) {
					check(pass, c)
				}
			}
		}
	}
	return nil
}

func check(pass *analysis.Pass, c *ast.Comment) {
	rest := c.Text[len(prefix):]
	// A directive runs to the end of the comment or to an embedded " // "
	// tail; the tail form is what lets analysistest fixtures append a
	// "// want" clause to the directive line under test.
	if i := strings.Index(rest, " // "); i >= 0 {
		rest = rest[:i]
	}
	verb := rest
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		verb = rest[:i]
	}
	switch verb {
	case "noalloc":
		// Bare marker; nothing to validate.
	case "allow-walltime", "detached":
		requireReason(pass, c, rest, verb)
	case "recovers", "invariant":
		pass.Reportf(c.Pos(), "mpgraph:%s is a doc marker, not a directive: written without a space go/ast strips it from the doc text and the marker becomes invisible; write \"// mpgraph:%s\"", verb, verb)
	default:
		pass.Reportf(c.Pos(),
			"unknown directive mpgraph:%s; known verbs are allow, allow-walltime, detached, noalloc (plus the space-form doc markers mpgraph:recovers and mpgraph:invariant)",
			verb)
	}
}

// checkAllow reports the unknown analyzer names of an allow directive and
// the grammar error analysis.ParseAllow found in it, if any.
func checkAllow(pass *analysis.Pass, c *ast.Comment, names []string, err error, known map[string]bool) {
	for _, name := range names {
		if !known[name] {
			pass.Reportf(c.Pos(), "unknown analyzer %q in mpgraph:allow directive", name)
		}
	}
	switch {
	case errors.Is(err, analysis.ErrAllowNoReason):
		reportNoReason(pass, c, "allow")
	case err != nil:
		pass.Reportf(c.Pos(), "%v", err)
	}
}

// requireReason reports when the directive lacks a non-empty " -- <reason>"
// tail.
func requireReason(pass *analysis.Pass, c *ast.Comment, rest, verb string) {
	if i := strings.Index(rest, " -- "); i >= 0 && strings.TrimSpace(rest[i+4:]) != "" {
		return
	}
	reportNoReason(pass, c, verb)
}

// reportNoReason reports a reasonless suppression.
func reportNoReason(pass *analysis.Pass, c *ast.Comment, verb string) {
	pass.Reportf(c.Pos(), "mpgraph:%s directive without a reason; append -- <why> so the suppression documents itself", verb)
}

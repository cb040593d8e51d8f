// Package directive validates the //mpgraph: comment vocabulary itself.
// The other analyzers trust these comments — allow suppresses findings,
// detached blesses a goroutine, noalloc arms the allocation check — so a
// typo'd verb or a suppression without a reason silently weakens the whole
// suite. This pass makes the directives load-bearing:
//
//   - every suppression (allow, allow-walltime, detached) must carry a
//     " -- <reason>" tail; a bare directive reads as noise, an explained
//     one as a documented decision;
//   - //mpgraph:allow may only name analyzers that exist (the Known
//     roster, which cmd/mpgraph-vet asserts matches its suite);
//   - mpgraph:recovers and mpgraph:invariant are doc-comment markers, not
//     directives: written without a space they are directive-style
//     comments that go/ast strips from the doc text, making the marker
//     invisible to the passes that look for it;
//   - unknown verbs are reported instead of being ignored.
//
// Mechanical repairs (a TODO reason, the missing marker space) ship as
// suggested fixes.
package directive

import (
	"fmt"
	"go/ast"
	"strings"

	"mpgraph/internal/analysis"
)

// Known is the roster of analyzer names an //mpgraph:allow directive may
// cite. cmd/mpgraph-vet tests that this list matches the registered suite,
// so a new analyzer cannot ship without becoming suppressible-by-name.
var Known = []string{
	"addrhelpers",
	"chansafe",
	"ctxflow",
	"directive",
	"errdrop",
	"floateq",
	"golifetime",
	"injectpoint",
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
	Doc:  "validate //mpgraph: directives: known verbs, real analyzer names in allow lists, a mandatory -- reason on every suppression, and space-form doc markers",
	Match: func(path string) bool {
		return path == "mpgraph" || strings.HasPrefix(path, "mpgraph/internal/")
	},
	Run: run,
}

const prefix = "//mpgraph:"

// todoReason is appended by the suggested fix for a reasonless suppression.
const todoReason = " -- TODO: justify this suppression"

func run(pass *analysis.Pass) error {
	known := map[string]bool{}
	for _, n := range Known {
		known[n] = true
	}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				check(pass, c, known)
			}
		}
	}
	return nil
}

func check(pass *analysis.Pass, c *ast.Comment, known map[string]bool) {
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
	case "allow":
		checkAllow(pass, c, rest, known)
	case "allow-walltime", "detached":
		requireReason(pass, c, rest, verb)
	case "recovers", "invariant":
		pass.Report(analysis.Diagnostic{
			Pos:     c.Pos(),
			Message: fmt.Sprintf("mpgraph:%s is a doc marker, not a directive: written without a space go/ast strips it from the doc text and the marker becomes invisible; write \"// mpgraph:%s\"", verb, verb),
			SuggestedFixes: []analysis.SuggestedFix{{
				Message: "insert the space that keeps the marker in the doc text",
				TextEdits: []analysis.TextEdit{{
					Pos:     c.Pos(),
					End:     c.Pos() + 2,
					NewText: "// ",
				}},
			}},
		})
	default:
		pass.Reportf(c.Pos(),
			"unknown directive mpgraph:%s; known verbs are allow, allow-walltime, detached, noalloc (plus the space-form doc markers mpgraph:recovers and mpgraph:invariant)",
			verb)
	}
}

// checkAllow validates the analyzer names and the reason of an allow
// directive.
func checkAllow(pass *analysis.Pass, c *ast.Comment, rest string, known map[string]bool) {
	body := strings.TrimPrefix(rest, "allow")
	namesPart := body
	if i := strings.Index(body, " -- "); i >= 0 {
		namesPart = body[:i]
	}
	names := strings.TrimSpace(namesPart)
	if names == "" {
		pass.Reportf(c.Pos(), "mpgraph:allow directive names no analyzers; write mpgraph:allow <name>[,<name>] followed by a reason")
		return
	}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name != "" && !known[name] {
			pass.Reportf(c.Pos(), "unknown analyzer %q in mpgraph:allow directive", name)
		}
	}
	requireReason(pass, c, rest, "allow")
}

// requireReason reports (with a TODO-reason fix) when the directive lacks a
// non-empty " -- <reason>" tail.
func requireReason(pass *analysis.Pass, c *ast.Comment, rest, verb string) {
	if i := strings.Index(rest, " -- "); i >= 0 && strings.TrimSpace(rest[i+4:]) != "" {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:     c.Pos(),
		Message: fmt.Sprintf("mpgraph:%s directive without a reason; append -- <why> so the suppression documents itself", verb),
		SuggestedFixes: []analysis.SuggestedFix{{
			Message: "append a TODO reason to be filled in",
			TextEdits: []analysis.TextEdit{{
				Pos:     c.End(),
				End:     c.End(),
				NewText: todoReason,
			}},
		}},
	})
}

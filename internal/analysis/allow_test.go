package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"mpgraph/internal/analysis"
)

// TestParseAllow pins the one allow grammar: anchored at the comment start,
// names joined by commas with no spaces, a mandatory reason.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text    string
		ok      bool
		wantErr bool
		names   []string
	}{
		{"//mpgraph:allow errdrop -- r", true, false, []string{"errdrop"}},
		{"//mpgraph:allow errdrop,maporder -- one reason", true, false, []string{"errdrop", "maporder"}},
		{"//mpgraph:allow errdrop -- r // want `x`", true, false, []string{"errdrop"}},
		{"//mpgraph:allow errdrop", true, true, []string{"errdrop"}},
		{"//mpgraph:allow errdrop -- // want `x`", true, true, []string{"errdrop"}},
		{"//mpgraph:allow errdrop, maporder -- r", true, true, nil},
		{"//mpgraph:allow  errdrop -- r", true, true, nil},
		{"//mpgraph:allow -- r", true, true, nil},
		{"//mpgraph:allow", true, true, nil},
		{"// see below //mpgraph:allow errdrop -- r", true, true, nil},
		{"//mpgraph:allow-walltime -- r", false, false, nil},
		{"// mpgraph:allow errdrop -- prose, not a directive", false, false, nil},
		{"// an ordinary comment", false, false, nil},
	}
	for _, c := range cases {
		names, ok, err := analysis.ParseAllow(c.text)
		if ok != c.ok || (err != nil) != c.wantErr {
			t.Errorf("ParseAllow(%q) = ok %v, err %v; want ok %v, error %v", c.text, ok, err, c.ok, c.wantErr)
		}
		if len(names) != len(c.names) {
			t.Errorf("ParseAllow(%q) names = %q, want %q", c.text, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("ParseAllow(%q) names = %q, want %q", c.text, names, c.names)
			}
		}
	}
}

const staleSrc = `package p

func f() {
	g() //mpgraph:allow errdrop,maporder -- r
	g() //mpgraph:allow errdrop -- r
	g() // see below //mpgraph:allow errdrop -- r
}

func g() {}
`

// TestSuppressionsStale: a name that silenced a finding is used; every other
// name of an analyzer in the suite is stale, one finding each, attributed
// to that analyzer; a malformed allow registers nothing.
func TestSuppressionsStale(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", staleSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := analysis.CollectSuppressions(fset, []*ast.File{f})
	line := func(n int) token.Pos { return fset.File(f.Pos()).LineStart(n) }
	if !sup.Allowed(fset, line(4), "errdrop") {
		t.Fatal("errdrop is not allowed on line 4")
	}
	if sup.Allowed(fset, line(4), "walltime") {
		t.Error("an uncited analyzer is allowed on line 4")
	}
	if sup.Allowed(fset, line(6), "errdrop") {
		t.Error("an allow after other text suppresses line 6")
	}
	inSuite := func(name string) bool { return name == "errdrop" || name == "maporder" }
	stale := sup.Stale(inSuite)
	want := []struct {
		line     int
		analyzer string
	}{{4, "maporder"}, {5, "errdrop"}}
	if len(stale) != len(want) {
		t.Fatalf("Stale = %+v, want %d findings", stale, len(want))
	}
	for i, w := range want {
		if got := fset.Position(stale[i].Pos).Line; got != w.line || stale[i].Analyzer != w.analyzer {
			t.Errorf("stale[%d] = line %d (%s), want line %d (%s)", i, got, stale[i].Analyzer, w.line, w.analyzer)
		}
	}
	if got := sup.Stale(func(string) bool { return false }); len(got) != 0 {
		t.Errorf("names outside the suite reported stale: %+v", got)
	}
}

// TestFilterDeduplicates: two analyzers reporting the same message at the
// same position collapse to one diagnostic, attributed to the lexically
// first analyzer; distinct messages at one position both survive.
func TestFilterDeduplicates(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "q.go", staleSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := fset.File(f.Pos()).LineStart(3)
	diags := []analysis.Diagnostic{
		{Pos: p, Message: "same finding", Analyzer: "zeta"},
		{Pos: p, Message: "same finding", Analyzer: "alpha"},
		{Pos: p, Message: "different finding", Analyzer: "zeta"},
	}
	got := analysis.Filter(fset, diags, analysis.Suppressions{})
	if len(got) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(got), got)
	}
	if got[0].Message != "different finding" {
		t.Errorf("sorted order wrong: %+v", got)
	}
	if got[1].Analyzer != "alpha" {
		t.Errorf("dedupe kept %q, want lexically-first analyzer alpha", got[1].Analyzer)
	}
}

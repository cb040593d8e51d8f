package facts

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// roundTripFacts is a representative package summary touching every field.
func roundTripFacts() *PackageFacts {
	return &PackageFacts{
		Path:    "mpgraph/internal/example",
		Version: Version,
		Funcs: []*FuncFact{
			{Func: "(*T).Method", NoAlloc: true},
			{Func: "Broken", NoAlloc: false, Reason: "calls make at x.go:10"},
			{Func: "Chained", NoAlloc: false, Via: "mpgraph/internal/other.Leaf"},
			{Func: "Worker", NoAlloc: true, Sink: true,
				Recovers: true, Fires: []string{"serve-flush"}, Arms: []string{"*"}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	pf := roundTripFacts()
	data, err := Encode(pf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Errorf("round trip changed bytes:\n--- first ---\n%s\n--- second ---\n%s", data, re)
	}
	if got.Funcs[0].Func != "(*T).Method" || !got.Funcs[0].NoAlloc {
		t.Errorf("decoded funcs mangled: %+v", got.Funcs[0])
	}
}

func TestEncodeCanonicalOrderAndTrailingNewline(t *testing.T) {
	pf := roundTripFacts()
	// Scramble: Encode must sort by symbol regardless of input order.
	pf.Funcs[0], pf.Funcs[3] = pf.Funcs[3], pf.Funcs[0]
	data, err := Encode(pf)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := Encode(roundTripFacts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, canonical) {
		t.Error("encoding is sensitive to input order")
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Error("encoded facts must end with a newline")
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	pf := roundTripFacts()
	pf.Version = Version + 1
	data, err := Encode(pf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted a facts file from a different version")
	}
}

func TestFileNameFlattensPath(t *testing.T) {
	got := FileName("mpgraph/internal/analysis/facts")
	want := "mpgraph__internal__analysis__facts.facts.json"
	if got != want {
		t.Errorf("FileName = %q, want %q", got, want)
	}
}

const computeSrc = `package p

//mpgraph:noalloc
func Clean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

func Alloc(n int) []int { return make([]int, n) }

func Wrap(n int) []int { return Alloc(n) }

func Parks(done chan struct{}) {
	for range done {
	}
}

func Waits(done chan struct{}) { Parks(done) }

func Guard(ok bool) {
	if !ok {
		panic("invariant")
	}
}

func Recovers(f func()) {
	defer func() { recover() }()
	f()
}
`

// computeFixture type-checks computeSrc and summarises it twice, proving
// Compute is a pure function of the source.
func TestComputeDeterministicBytes(t *testing.T) {
	encode := func() []byte {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", computeSrc, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
		pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		pf := Compute(fset, []*ast.File{f}, pkg, info, NewStore(), nil)
		data, err := Encode(pf)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := encode(), encode()
	if !bytes.Equal(first, second) {
		t.Errorf("two Compute runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	pf, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*FuncFact{}
	for _, fn := range pf.Funcs {
		byName[fn.Func] = fn
	}
	checks := []struct {
		fn   string
		want func(*FuncFact) bool
		desc string
	}{
		{"Clean", func(f *FuncFact) bool { return f.NoAlloc }, "proves NoAlloc"},
		{"Alloc", func(f *FuncFact) bool { return !f.NoAlloc && f.Reason != "" }, "breaks with a leaf Reason"},
		{"Wrap", func(f *FuncFact) bool { return !f.NoAlloc && f.Via == "p.Alloc" }, "breaks via p.Alloc"},
		{"Parks", func(f *FuncFact) bool { return f.Sink }, "is a sink (range over a channel)"},
		{"Waits", func(f *FuncFact) bool { return f.Sink }, "inherits Sink from its callee"},
		{"Guard", func(f *FuncFact) bool { return f.NoAlloc }, "panics yet stays NoAlloc (panic-arg exemption)"},
		{"Recovers", func(f *FuncFact) bool { return f.Recovers }, "recovers"},
	}
	for _, c := range checks {
		fn, ok := byName[c.fn]
		if !ok {
			t.Errorf("no fact for %s", c.fn)
			continue
		}
		if !c.want(fn) {
			t.Errorf("%s: fact %+v does not satisfy: %s", c.fn, fn, c.desc)
		}
	}
}

func TestWriteDirRoundTrips(t *testing.T) {
	store := NewStore()
	store.Add(roundTripFacts())
	dir := t.TempDir()
	if err := store.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName("mpgraph/internal/example"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Path != "mpgraph/internal/example" || len(pf.Funcs) != 4 {
		t.Errorf("written facts mangled: path=%q funcs=%d", pf.Path, len(pf.Funcs))
	}
}

func TestChainFollowsViaToLeaf(t *testing.T) {
	store := NewStore()
	store.Add(&PackageFacts{Path: "m/leafpkg", Version: Version, Funcs: []*FuncFact{
		{Func: "Leaf", Reason: "calls make at leaf.go:3"},
	}})
	store.Add(&PackageFacts{Path: "m/mid", Version: Version, Funcs: []*FuncFact{
		{Func: "Mid", Via: "m/leafpkg.Leaf"},
	}})
	fact := store.Func("m/mid", "Mid")
	got := store.Chain("m/mid", fact)
	want := []string{"m/mid.Mid", "m/leafpkg.Leaf: calls make at leaf.go:3"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Chain = %q, want %q", got, want)
	}
}

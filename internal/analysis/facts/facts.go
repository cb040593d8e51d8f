// Package facts is mpgraph-vet's cross-package fact layer: deterministic,
// serializable per-function behaviour summaries computed bottom-up over the
// module's package dependency graph, mirroring golang.org/x/tools/go/analysis
// facts on the standard library only.
//
// The driver visits packages in topological import order, so by the time a
// package is summarised every module dependency's facts are already in the
// Store. Analyzers consult the store through Pass.Facts to settle questions
// the per-package view cannot: "is this cross-package callee allocation-free?"
// (noalloc), "does this spawned goroutine reach a sink or a recovery boundary
// in another package?" (golifetime). A fact no analyzer or test reads is not
// computed: the Fires and Arms facts have no analyzer reader; the
// cmd/mpgraph-vet test TestInjectionRosterMatchesFiredPoints reads them to
// pin the declared injection roster to the points fired in-tree.
//
// Serialisation is byte-deterministic by construction: one JSON file per
// package, entries sorted by symbol, positions rendered as base-name:line
// (machine-independent), no timestamps. Two runs over the same tree must
// produce identical bytes — CI diffs the fact dirs of two runs to enforce it.
package facts

import (
	"encoding/json"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Version is bumped whenever the encoding changes incompatibly; Decode
// rejects files written by a different version rather than misreading them.
const Version = 1

// FuncFact is one function's behaviour summary. Boolean facts are computed
// to a documented approximation (see Compute): NoAlloc is an
// under-approximation of safety (false when unprovable), while Sink and
// Recovers are reachability facts propagated only along statically resolved
// module-internal calls.
type FuncFact struct {
	// Func is the symbol key: "Name" for functions, "(T).Name" or
	// "(*T).Name" for methods, with generic instantiations collapsed to
	// their origin declaration.
	Func string `json:"func"`
	// NoAlloc reports that steady-state execution of the function was
	// proven heap-allocation-free under the noalloc rules (nil-guard
	// fallbacks, lines allowing noalloc, and panic arguments are
	// exempt; every reachable callee must itself be proven or trusted).
	NoAlloc bool `json:"noalloc"`
	// Sink reports that the function contains a goroutine-lifetime sink
	// (select, receive from ctx.Done(), range over a channel), directly or
	// through statically resolved module callees.
	Sink bool `json:"sink,omitempty"`
	// Recovers reports a recover() call or an //mpgraph:recovers-marked
	// body, directly or through statically resolved module callees.
	Recovers bool `json:"recovers,omitempty"`
	// Fires lists the injection-point literals passed to resilience
	// Fire(...) in this function's body ("*" for a non-constant argument).
	Fires []string `json:"fires,omitempty"`
	// Arms lists the injection-point literals passed to resilience
	// Arm/ArmProb(...) in this function's body ("*" for non-constant).
	Arms []string `json:"arms,omitempty"`
	// Reason explains a false NoAlloc when the leak is local: the first
	// offending construct in source order, as "what at file:line".
	Reason string `json:"reason,omitempty"`
	// Via explains a false NoAlloc inherited from a callee: the
	// "pkgpath.Symbol" whose fact broke the chain. Follow it through the
	// store (Chain) to reach the leaf Reason.
	Via string `json:"via,omitempty"`
}

// PackageFacts is one package's serialised summary.
type PackageFacts struct {
	Path    string      `json:"path"`
	Version int         `json:"version"`
	Funcs   []*FuncFact `json:"funcs"`
}

// Store holds the facts of every package summarised so far, keyed by import
// path. It is filled in topological order by the driver and read through
// Pass.Facts by analyzers.
type Store struct {
	pkgs map[string]*PackageFacts
	fn   map[string]map[string]*FuncFact
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{pkgs: map[string]*PackageFacts{}, fn: map[string]map[string]*FuncFact{}}
}

// Add registers a package's facts, replacing any previous entry for the path.
func (s *Store) Add(pf *PackageFacts) {
	s.pkgs[pf.Path] = pf
	idx := make(map[string]*FuncFact, len(pf.Funcs))
	for _, f := range pf.Funcs {
		idx[f.Func] = f
	}
	s.fn[pf.Path] = idx
}

// Pkg returns the facts for the package at path, or nil if none were
// computed (standard library, or a package outside the analysis set).
func (s *Store) Pkg(path string) *PackageFacts { return s.pkgs[path] }

// Func returns one function's fact by package path and symbol key, or nil.
func (s *Store) Func(path, symbol string) *FuncFact {
	return s.fn[path][symbol]
}

// ForFunc resolves a *types.Func (instantiations collapsed to their origin)
// to its fact, or nil when the function's package has no facts — the
// standard library, a bodiless declaration outside the set, or an interface
// method, which has no body to summarise.
func (s *Store) ForFunc(f *types.Func) *FuncFact {
	if f == nil {
		return nil
	}
	f = f.Origin()
	pkg := f.Pkg()
	if pkg == nil {
		return nil
	}
	return s.Func(pkg.Path(), Symbol(f))
}

// Paths returns the summarised package paths in sorted order.
func (s *Store) Paths() []string {
	out := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Chain renders the provenance of a broken NoAlloc obligation: starting
// from fact (owned by the package at path), it follows Via references
// through the store until a leaf Reason, yielding entries like
// "pkg.Symbol" and finally "pkg.Symbol: calls make at file.go:12". The walk
// is depth-capped so a (theoretically impossible) cycle cannot hang it.
func (s *Store) Chain(path string, fact *FuncFact) []string {
	var out []string
	for depth := 0; fact != nil && depth < 32; depth++ {
		name := path + "." + fact.Func
		if fact.Reason != "" {
			out = append(out, name+": "+fact.Reason)
			return out
		}
		if fact.Via == "" {
			out = append(out, name)
			return out
		}
		out = append(out, name)
		viaPath, viaSym, ok := splitVia(fact.Via)
		if !ok {
			return out
		}
		path, fact = viaPath, s.Func(viaPath, viaSym)
	}
	return out
}

// splitVia splits "pkg/path.Symbol" at the last dot after the final slash.
func splitVia(via string) (path, symbol string, ok bool) {
	slash := strings.LastIndex(via, "/")
	dot := strings.Index(via[slash+1:], ".")
	if dot < 0 {
		return "", "", false
	}
	dot += slash + 1
	return via[:dot], via[dot+1:], true
}

// Symbol returns the serialised symbol key for a function object:
// "Name" for package-level functions, "(T).Name" / "(*T).Name" for methods.
// Generic instantiations are collapsed to the origin declaration.
func Symbol(f *types.Func) string {
	f = f.Origin()
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return f.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if p, okp := t.(*types.Pointer); okp {
		ptr, t = true, p.Elem()
	}
	name := "?"
	if named, okn := t.(*types.Named); okn {
		name = named.Obj().Name()
	}
	if ptr {
		return "(*" + name + ")." + f.Name()
	}
	return "(" + name + ")." + f.Name()
}

// Encode renders a package's facts as canonical bytes: indented JSON with
// struct-ordered fields, funcs sorted by symbol, trailing newline. The
// output is a pure function of the package's source, so two runs over the
// same tree produce identical bytes.
func Encode(pf *PackageFacts) ([]byte, error) {
	sort.Slice(pf.Funcs, func(i, j int) bool { return pf.Funcs[i].Func < pf.Funcs[j].Func })
	data, err := json.MarshalIndent(pf, "", "\t")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses bytes produced by Encode, rejecting version mismatches.
func Decode(data []byte) (*PackageFacts, error) {
	var pf PackageFacts
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("facts: decoding: %w", err)
	}
	if pf.Version != Version {
		return nil, fmt.Errorf("facts: version %d, want %d", pf.Version, Version)
	}
	return &pf, nil
}

// FileName maps an import path to its facts file name, escaping path
// separators so every package lands flat in one directory.
func FileName(path string) string {
	return strings.ReplaceAll(path, "/", "__") + ".facts.json"
}

// WriteDir serialises every package in the store into dir (created if
// needed), one file per package. File contents and names are deterministic;
// CI runs this twice into separate dirs and requires `diff -r` to be empty.
func (s *Store) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, path := range s.Paths() {
		data, err := Encode(s.pkgs[path])
		if err != nil {
			return fmt.Errorf("facts: encoding %s: %w", path, err)
		}
		if err := os.WriteFile(filepath.Join(dir, FileName(path)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

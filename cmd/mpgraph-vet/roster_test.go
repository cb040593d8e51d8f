package main

import (
	"sort"
	"testing"

	"mpgraph/internal/analysis"
	"mpgraph/internal/analysis/facts"
	"mpgraph/internal/resilience"
)

// TestInjectionRosterMatchesFiredPoints loads the whole module, summarises
// every function through the fact layer, and pins the declared injection
// roster to the set of points actually fired or armed by non-test code:
//
//   - a declared point nobody fires is dead chaos surface (no drill can
//     exercise it);
//   - a fired point that is not declared would be swallowed silently at
//     runtime (Fire of an unknown point arms nothing).
//
// This test is the only reader of the Fires and Arms facts. Non-test code
// passes typed roster constants to Fire, so the literals it collects are
// the roster's own values.
func TestInjectionRosterMatchesFiredPoints(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load([]string{"./..."}); err != nil {
		t.Fatal(err)
	}

	// Fires/Arms are leaf facts (no cross-package propagation), so package
	// order does not affect the collected set.
	store := facts.NewStore()
	used := map[string]bool{}
	for _, pkg := range loader.Loaded() {
		pf := facts.Compute(loader.Fset, pkg.Files, pkg.Types, pkg.Info, store, nil)
		store.Add(pf)
		for _, fn := range pf.Funcs {
			for _, p := range fn.Fires {
				used[p] = true
			}
			for _, p := range fn.Arms {
				used[p] = true
			}
		}
	}
	if used["*"] {
		t.Log("a non-constant point argument exists in-tree; the declared-side check below is advisory")
	}
	delete(used, "*")

	declared := map[string]bool{}
	for _, p := range resilience.Points() {
		declared[string(p)] = true
	}

	var missing, undeclared []string
	for p := range declared {
		if !used[p] {
			missing = append(missing, p)
		}
	}
	for p := range used {
		if !declared[p] {
			undeclared = append(undeclared, p)
		}
	}
	sort.Strings(missing)
	sort.Strings(undeclared)
	if len(missing) > 0 {
		t.Errorf("declared injection points never fired or armed in-tree: %v", missing)
	}
	if len(undeclared) > 0 {
		t.Errorf("points fired or armed in-tree but missing from resilience.Points(): %v", undeclared)
	}
}

package main

import (
	"sort"
	"testing"

	"mpgraph/internal/analysis/passes/directive"
)

// TestRosterMatchesDirectiveKnown pins the directive analyzer's Known list
// to the registered suite: an allow directive may cite exactly
// the analyzers this binary runs, so adding a pass without updating Known
// (or vice versa) fails here instead of silently misvalidating directives.
func TestRosterMatchesDirectiveKnown(t *testing.T) {
	var names []string
	for _, a := range suite {
		names = append(names, a.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("suite is not sorted by analyzer name: %v", names)
	}
	known := append([]string(nil), directive.Known...)
	if !sort.StringsAreSorted(known) {
		t.Errorf("directive.Known is not sorted: %v", known)
	}
	if len(names) != len(known) {
		t.Fatalf("suite has %d analyzers, directive.Known lists %d:\nsuite: %v\nknown: %v",
			len(names), len(known), names, known)
	}
	for i := range names {
		if names[i] != known[i] {
			t.Errorf("roster mismatch at %d: suite %q vs directive.Known %q", i, names[i], known[i])
		}
	}
}

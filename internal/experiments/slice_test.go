package experiments

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mpgraph/internal/trace"
)

// bruteCensus recounts the phase transitions of accs pair by pair.
func bruteCensus(accs []trace.Access) map[[2]uint8]int {
	out := map[[2]uint8]int{}
	for i := 1; i < len(accs); i++ {
		if from, to := accs[i-1].Phase, accs[i].Phase; from != to {
			out[[2]uint8{from, to}]++
		}
	}
	return out
}

// TestMeasuredSliceCensus cuts windows out of synthetic traces whose phase
// changes are known and holds the census to a brute-force recount.
func TestMeasuredSliceCensus(t *testing.T) {
	// Three phases of four accesses, twice: 0→1, 1→2, 2→0, 0→1, 1→2.
	tr := &trace.Trace{NumPhases: 3, IterationStarts: []int{0, 12}}
	for i := 0; i < 24; i++ {
		tr.Accesses = append(tr.Accesses, trace.Access{Addr: uint64(i) << 6, Phase: uint8(i / 4 % 3)})
	}
	s := measuredSlice(tr, 2, 100)
	want := map[[2]uint8]int{{0, 1}: 2, {1, 2}: 2, {2, 0}: 1}
	if s.Start != 0 || s.End != 22 || !maps.Equal(s.Transitions, want) || s.NumTransitions() != 5 {
		t.Fatalf("whole tail: %+v, want [0, 22) with %v", s, want)
	}
	if s := measuredSlice(tr, 12, 4); s.End != 4 || s.NumTransitions() != 0 {
		t.Fatalf("one phase: %+v, want [0, 4) with no transition", s)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		tr := &trace.Trace{NumPhases: 1 + rng.Intn(4), IterationStarts: []int{0}}
		n := rng.Intn(300)
		phase := 0
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				phase = rng.Intn(tr.NumPhases)
			}
			tr.Accesses = append(tr.Accesses, trace.Access{Phase: uint8(phase)})
		}
		testLo := rng.Intn(n + 1)
		s := measuredSlice(tr, testLo, rng.Intn(n+1))
		if s.Start < 0 || s.Start > s.End || testLo+s.End > n {
			t.Fatalf("trial %d: window [%d, %d) outside %d test accesses", trial, s.Start, s.End, n-testLo)
		}
		if want := bruteCensus(tr.Accesses[testLo+s.Start : testLo+s.End]); !maps.Equal(s.Transitions, want) {
			t.Fatalf("trial %d: census %v, brute force %v", trial, s.Transitions, want)
		}
	}
}

// TestWorkloadSlice holds every workload's data to its slice under the test
// options: TestRaw is the test accesses' [Start, End), MaxTestAccesses long
// where the test accesses allow it, and the census counts that window's
// transitions.
func TestWorkloadSlice(t *testing.T) {
	for _, wl := range shared.Opt.Workloads() {
		d, err := shared.Data(wl)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := shared.Trace(wl)
		if err != nil {
			t.Fatal(err)
		}
		_, testLo, err := tr.Iteration(0)
		if err != nil {
			t.Fatal(err)
		}
		s, test := d.Slice, tr.Accesses[testLo:]
		if s.End-s.Start != len(d.TestRaw) || s.End-s.Start != min(len(test), shared.Opt.MaxTestAccesses) {
			t.Fatalf("%s: slice [%d, %d) of %d test accesses, TestRaw %d", wl, s.Start, s.End, len(test), len(d.TestRaw))
		}
		if !slices.Equal(d.TestRaw, test[s.Start:s.End]) {
			t.Fatalf("%s: TestRaw is not the test accesses' [%d, %d)", wl, s.Start, s.End)
		}
		win := tr.Slice(testLo+s.Start, testLo+s.End)
		if got, want := s.NumTransitions(), len(win.PhaseTransitions()); got != want {
			t.Fatalf("%s: census total %d, window has %d transitions", wl, got, want)
		}
	}
}

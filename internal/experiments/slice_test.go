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

// TestMeasuredSliceCensus cuts windows and their warm-ups out of synthetic
// traces whose phase changes are known and holds the census, which counts the
// window [Start, End) alone, to a brute-force recount.
func TestMeasuredSliceCensus(t *testing.T) {
	// Three phases of four accesses, twice: 0→1, 1→2, 2→0, 0→1, 1→2.
	tr := &trace.Trace{NumPhases: 3, IterationStarts: []int{0, 12}}
	for i := 0; i < 24; i++ {
		tr.Accesses = append(tr.Accesses, trace.Access{Addr: uint64(i) << 6, Phase: uint8(i / 4 % 3)})
	}
	s := measuredSlice(tr, 2, 0, 0, 100)
	want := map[[2]uint8]int{{0, 1}: 2, {1, 2}: 2, {2, 0}: 1}
	if s.WarmStart != 0 || s.Start != 0 || s.End != 22 || !maps.Equal(s.Transitions, want) || s.NumTransitions() != 5 {
		t.Fatalf("whole tail: %+v, want no warm-up and [0, 22) with %v", s, want)
	}
	if s := measuredSlice(tr, 12, 0, 0, 4); s.End != 4 || s.NumTransitions() != 0 {
		t.Fatalf("one phase: %+v, want [0, 4) with no transition", s)
	}
	// Warm-ups on the test split of accesses [12, 24): phase 0 ends at
	// access 16, so the 0→1 change at the warm-up's edge is not the window's.
	for _, c := range []struct {
		name                     string
		start, warmup, max       int
		warmStart, end, censused int
	}{
		{"none", 4, 0, 6, 4, 10, 1},
		{"inside the test split", 4, 2, 6, 2, 10, 1},
		{"into iteration 1", 4, 6, 4, -2, 8, 0},
		{"clipped at the trace start", 4, 20, 4, -12, 8, 0},
	} {
		s := measuredSlice(tr, 12, c.start, c.warmup, c.max)
		if s.WarmStart != c.warmStart || s.Start != c.start || s.End != c.end || s.NumTransitions() != c.censused {
			t.Fatalf("warm-up %s: %+v, want warm-up [%d, %d) and window [%d, %d) with %d transitions",
				c.name, s, c.warmStart, c.start, c.start, c.end, c.censused)
		}
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
		start, warmup := rng.Intn(n-testLo+1), rng.Intn(n+1)
		s := measuredSlice(tr, testLo, start, warmup, rng.Intn(n+1))
		if s.Start != start || s.Start > s.End || testLo+s.End > n {
			t.Fatalf("trial %d: window [%d, %d) outside %d test accesses", trial, s.Start, s.End, n-testLo)
		}
		if s.WarmStart != max(start-warmup, -testLo) {
			t.Fatalf("trial %d: warm-up [%d, %d) of %d accesses after %d", trial, s.WarmStart, start, warmup, testLo)
		}
		if want := bruteCensus(tr.Accesses[testLo+s.Start : testLo+s.End]); !maps.Equal(s.Transitions, want) {
			t.Fatalf("trial %d: census %v, brute force %v", trial, s.Transitions, want)
		}
	}
}

// TestWorkloadSlice holds every workload's data to its slice under the test
// options: WarmRaw is the trace's [WarmStart, Start) and TestRaw its
// [Start, End) (offsets into the test accesses), warmupAccesses and
// MaxTestAccesses long where the trace allows it, and the census counts the
// window's transitions.
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
		if s.Start-s.WarmStart != min(warmupAccesses, testLo+s.Start) ||
			!slices.Equal(d.WarmRaw, tr.Accesses[testLo+s.WarmStart:testLo+s.Start]) {
			t.Fatalf("%s: WarmRaw (%d accesses) is not the test accesses' [%d, %d)", wl, len(d.WarmRaw), s.WarmStart, s.Start)
		}
		win := tr.Slice(testLo+s.Start, testLo+s.End)
		if got, want := s.NumTransitions(), len(win.PhaseTransitions()); got != want {
			t.Fatalf("%s: census total %d, window has %d transitions", wl, got, want)
		}
	}
}

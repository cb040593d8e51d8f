package resilience

import (
	"math"
	"testing"
)

// FuzzParseInjector pins the -inject grammar's contract on arbitrary specs:
// an error or an injector, never a panic, and every spec it accepts arms
// only known points with known kinds, each to fire on a hit n ≥ 1 or with a
// probability p ∈ [0, 1] — no silently unarmed drill (a NaN probability
// never fires). The seed corpus is committed under testdata/fuzz.
func FuzzParseInjector(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := ParseInjector(spec, 1)
		if err != nil || in == nil {
			if in != nil {
				t.Fatalf("error %v came with an injector", err)
			}
			return
		}
		if len(in.arms) == 0 {
			t.Fatalf("%q: accepted with nothing armed", spec)
		}
		for point, a := range in.arms {
			if !validPoint(point) || !validKind(a.kind) {
				t.Fatalf("%q: armed %q with kind %q", spec, point, a.kind)
			}
			if a.at == 0 && (math.IsNaN(a.prob) || a.prob < 0 || a.prob > 1) {
				t.Fatalf("%q: armed %q with probability %v", spec, point, a.prob)
			}
		}
	})
}

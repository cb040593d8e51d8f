package experiments

import "testing"

// FuzzParseWorkload: the -workload string comes from outside the program.
// Every input either fails to parse or yields a Workload whose String form
// parses back to the same Workload; no input panics. The seed corpus is
// committed under testdata/fuzz.
func FuzzParseWorkload(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		w, err := ParseWorkload(s)
		if err != nil {
			if w != (Workload{}) {
				t.Fatalf("%q: error %v came with workload %+v", s, err, w)
			}
			return
		}
		back, err := ParseWorkload(w.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose String %q does not parse: %v", s, w, w.String(), err)
		}
		if back != w {
			t.Fatalf("%q parsed to %+v, its String %q to %+v", s, w, w.String(), back)
		}
	})
}

package experiments

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"mpgraph/internal/resilience"
)

// requireSameSuiteBits fails unless every parameter of every model of the two
// suites holds the same bits.
func requireSameSuiteBits(t *testing.T, name string, got, want *Suite) {
	t.Helper()
	wantMods := suiteModules(want)
	for mi, m := range suiteModules(got) {
		wp := wantMods[mi].Params()
		for pi, p := range m.Params() {
			for i, v := range p.Data {
				if math.Float64bits(v) != math.Float64bits(wp[pi].Data[i]) {
					t.Fatalf("%s: model %d param %d elem %d = %g, want %g", name, mi, pi, i, v, wp[pi].Data[i])
				}
			}
		}
	}
}

// trainSuiteAt trains o's first workload on a fresh runner at the given
// GOMAXPROCS.
func trainSuiteAt(t *testing.T, o Options, procs int) *Suite {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := NewRunner(o).Suite(o.Workloads()[0])
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return s
}

// TestSuiteBitsAcrossGOMAXPROCS: a suite's ten models train side by side on
// as many workers as there are Ps, and come out the same bits as when the
// same jobs run inline on one — each job owns its model and its tape, so
// nothing depends on what ran beside it.
func TestSuiteBitsAcrossGOMAXPROCS(t *testing.T) {
	o := faultOptions()
	requireSameSuiteBits(t, "GOMAXPROCS 4 vs 1", trainSuiteAt(t, o, 4), trainSuiteAt(t, o, 1))
}

// TestCellRetryTrainFaultUnderPool arms train-epoch while the suite's jobs run
// on a pool. Which job's epoch is the third hit depends on the schedule, but
// exactly one fires; an injected panic is recovered at forEachIndex's
// boundary, on the worker that raised it; the failed cell is retryable, and
// the retry — a fresh skeleton, nothing of the aborted jobs in it — trains the
// clean run's weights.
func TestCellRetryTrainFaultUnderPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := faultOptions()
	wl := base.Workloads()[0]
	clean, err := NewRunner(base).Suite(wl)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []resilience.Kind{resilience.KindErr, resilience.KindPanic} {
		o := base
		in := resilience.NewInjector(1).Arm(resilience.PointTrainEpoch, kind, 3)
		o.Injector = in
		r := NewRunner(o)

		_, err := r.Suite(wl)
		var ie *resilience.InjectedError
		if kind == resilience.KindPanic {
			var pe *resilience.PanicError
			if !errors.As(err, &pe) || pe.Boundary != "experiments.forEachIndex" {
				t.Fatalf("%s: Suite = %v, want a panic recovered at the pool's boundary", kind, err)
			}
			ie, _ = pe.Value.(*resilience.InjectedError)
		} else if !errors.As(err, &ie) {
			t.Fatalf("%s: Suite = %v, want the injected fault", kind, err)
		}
		if ie == nil || ie.Point != resilience.PointTrainEpoch || ie.Hit != 3 {
			t.Fatalf("%s: Suite = %v, want the train-epoch fault of hit 3", kind, err)
		}
		if fired := in.Fired(resilience.PointTrainEpoch); fired != 1 {
			t.Fatalf("%s: train-epoch fired %d times, want exactly once", kind, fired)
		}

		s, err := r.Suite(wl)
		if err != nil {
			t.Fatalf("%s: retry after the fault: %v (cell poisoned?)", kind, err)
		}
		if in.Fired(resilience.PointTrainEpoch) != 1 {
			t.Fatalf("%s: the retry fired again", kind)
		}
		requireSameSuiteBits(t, string(kind)+" retry", s, clean)
	}
}

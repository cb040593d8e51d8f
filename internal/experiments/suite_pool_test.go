package experiments

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/resilience"
)

// requireSameSuiteBits fails unless every parameter of every model of the two
// suites holds the same bits.
func requireSameSuiteBits(t *testing.T, name string, got, want *Suite) {
	t.Helper()
	for _, m := range AllModels {
		requireSameModelBits(t, name, m, got, want)
	}
}

// requireSameModelBits fails unless every parameter of model m of the two
// suites holds the same bits.
func requireSameModelBits(t *testing.T, name string, m SuiteModel, got, want *Suite) {
	t.Helper()
	wp := suiteModules(want)[m].Params()
	for pi, p := range suiteModules(got)[m].Params() {
		for i, v := range p.Data {
			if math.Float64bits(v) != math.Float64bits(wp[pi].Data[i]) {
				t.Fatalf("%s: %s param %d elem %d = %g, want %g", name, m, pi, i, v, wp[pi].Data[i])
			}
		}
	}
}

// trainSuiteAt trains o's first workload on a fresh runner at the given
// GOMAXPROCS.
func trainSuiteAt(t *testing.T, o Options, procs int) *Suite {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := NewRunner(o).Suite(o.Workloads()[0], AllModels...)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return s
}

// published lists the models whose Suite field is set, in field order.
func published(s *Suite) []SuiteModel {
	var out []SuiteModel
	for m, mod := range suiteModules(s) {
		if !reflect.ValueOf(mod).IsNil() {
			out = append(out, SuiteModel(m))
		}
	}
	return out
}

var (
	faultRefOnce sync.Once
	faultRef     *Runner
	faultRefErr  error
)

// faultSuiteRef is a runner over faultOptions that has trained the whole
// suite on one P; fresh runners borrow its workload data (runnerOn) so they
// pay only for the training under test.
func faultSuiteRef(t *testing.T) (*Runner, *Suite) {
	t.Helper()
	faultRefOnce.Do(func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		faultRef = NewRunner(faultOptions())
		_, faultRefErr = faultRef.Suite(faultRef.Opt.Workloads()[0], AllModels...)
	})
	if faultRefErr != nil {
		t.Fatal(faultRefErr)
	}
	s, err := faultRef.Suite(faultRef.Opt.Workloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	return faultRef, s
}

// runnerOn is a fresh runner at o that shares ref's workload data and no
// trained model.
func runnerOn(ref *Runner, o Options) *Runner {
	r := NewRunner(o)
	r.data, r.graphs = ref.data, ref.graphs
	return r
}

// TestSuiteBitsAcrossGOMAXPROCS: a suite's ten models train side by side on
// as many workers as there are Ps, and come out the same bits as when the
// same jobs run inline on one — each job owns its model and its tape, so
// nothing depends on what ran beside it.
func TestSuiteBitsAcrossGOMAXPROCS(t *testing.T) {
	_, serial := faultSuiteRef(t)
	requireSameSuiteBits(t, "GOMAXPROCS 4 vs 1", trainSuiteAt(t, faultOptions(), 4), serial)
}

// TestCellRetryTrainFaultUnderPool arms train-epoch while the suite's jobs run
// on a pool. Which job's epoch is the third hit depends on the schedule, but
// exactly one fires; an injected panic is recovered at forEachIndex's
// boundary, on the worker that raised it; the failed model stays nil while
// every other model is published, and is retryable; the retry — a fresh
// model, nothing of the aborted job in it — trains the clean run's weights
// and counts as the model's second run. Asking for the pair alone puts the
// fault in a phase job of a phase-specific model, whose other phase jobs
// finish without publishing it. The hook runs once per epoch of each
// single model and Epochs × NumPhases times per phase-specific model.
func TestCellRetryTrainFaultUnderPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := faultOptions()
	wl := base.Workloads()[0]
	counter := resilience.NewInjector(1).ArmProb(resilience.PointTrainEpoch, resilience.KindErr, 0)
	o := base
	o.Injector = counter
	r := NewRunner(o)
	clean, err := r.Suite(wl, AllModels...)
	if err != nil {
		t.Fatal(err)
	}
	P := clean.NumPhases
	if P < 2 {
		t.Fatalf("NumPhases %d: the fault cannot land in one of several phase jobs", P)
	}
	if hits, want := counter.Hits(resilience.PointTrainEpoch), uint64(base.Epochs*(8+2*P)); hits != want {
		t.Fatalf("train-epoch hit %d times, want %d (Epochs × (8 + 2 × NumPhases))", hits, want)
	}

	for _, kind := range []resilience.Kind{resilience.KindErr, resilience.KindPanic} {
		for _, want := range [][]SuiteModel{AllModels, nil} {
			name := fmt.Sprintf("%s, %d models asked", kind, len(want))
			o := base
			in := resilience.NewInjector(1).Arm(resilience.PointTrainEpoch, kind, 3)
			o.Injector = in
			r := NewRunner(o)

			_, err := r.Suite(wl, want...)
			var ie *resilience.InjectedError
			if kind == resilience.KindPanic {
				var pe *resilience.PanicError
				if !errors.As(err, &pe) || pe.Boundary != "experiments.forEachIndex" {
					t.Fatalf("%s: Suite = %v, want a panic recovered at the pool's boundary", name, err)
				}
				ie, _ = pe.Value.(*resilience.InjectedError)
			} else if !errors.As(err, &ie) {
				t.Fatalf("%s: Suite = %v, want the injected fault", name, err)
			}
			if ie == nil || ie.Point != resilience.PointTrainEpoch || ie.Hit != 3 {
				t.Fatalf("%s: Suite = %v, want the train-epoch fault of hit 3", name, err)
			}
			if fired := in.Fired(resilience.PointTrainEpoch); fired != 1 {
				t.Fatalf("%s: train-epoch fired %d times, want exactly once", name, fired)
			}
			ls := getCell(&r.mu, r.suites, wl)
			s, err := ls.data.get("test", func() (*Suite, error) { return r.suiteData(wl) })
			if err != nil {
				t.Fatal(err)
			}
			asked := len(want)
			if want == nil {
				asked = 2
			}
			got := published(s)
			if len(got) != asked-1 {
				t.Fatalf("%s: published %v, want all but the failed model", name, got)
			}
			for _, m := range got {
				requireSameModelBits(t, name+" survivor", m, s, clean)
			}

			s, err = r.Suite(wl, want...)
			if err != nil {
				t.Fatalf("%s: retry after the fault: %v (cell poisoned?)", name, err)
			}
			if in.Fired(resilience.PointTrainEpoch) != 1 {
				t.Fatalf("%s: the retry fired again", name)
			}
			retried := published(s)
			if len(retried) != asked {
				t.Fatalf("%s: the retry published %v", name, retried)
			}
			for _, m := range retried {
				runs := int32(1)
				if !slices.Contains(got, m) {
					runs = 2
				}
				if n := ls.trains[m].Load(); n != runs {
					t.Fatalf("%s: %s trained %d times, want %d", name, m, n, runs)
				}
				requireSameModelBits(t, name+" retry", m, s, clean)
			}
		}
	}
}

// TestSuiteModelAloneBits: each model trained alone on a fresh runner — not
// even the phase-specific pair beside it — at GOMAXPROCS 1 and 2, has the
// bits it has in a whole-suite run, and no other model is published. A
// model's training reads only its seed, its own tape and the shared dataset,
// so when it trains, and what trains beside it, cannot move it.
func TestSuiteModelAloneBits(t *testing.T) {
	ref, full := faultSuiteRef(t)
	wl := ref.Opt.Workloads()[0]
	for _, procs := range []int{1, 2} {
		for _, m := range AllModels {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				r := runnerOn(ref, ref.Opt)
				ls := getCell(&r.mu, r.suites, wl)
				s, err := ls.data.get("test", func() (*Suite, error) { return r.suiteData(wl) })
				if err != nil {
					t.Fatal(err)
				}
				var alone [numSuiteModels]bool
				alone[m] = true
				if err := r.train(ls, s, alone); err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: %v", m, procs, err)
				}
				if got := published(s); !slices.Equal(got, []SuiteModel{m}) {
					t.Fatalf("%s at GOMAXPROCS %d published %v", m, procs, got)
				}
				requireSameModelBits(t, m.String()+" alone", m, s, full)
			}()
		}
	}
}

// TestSuiteSingleFlight: four overlapping requests on one fresh runner train
// each model exactly once, and every model comes out the whole-suite bits.
// make race runs it at GOMAXPROCS 1 and 2.
func TestSuiteSingleFlight(t *testing.T) {
	ref, full := faultSuiteRef(t)
	wl := ref.Opt.Workloads()[0]
	r := runnerOn(ref, ref.Opt)
	requests := [][]SuiteModel{{}, {PSDelta, LSTMDelta}, AllModels, {AttnDelta, LSTMPage}}
	suites := make([]*Suite, len(requests))
	errs := make([]error, len(requests))
	var wg sync.WaitGroup
	for i, want := range requests {
		wg.Add(1)
		go func(i int, want []SuiteModel) {
			defer wg.Done()
			suites[i], errs[i] = r.Suite(wl, want...)
		}(i, want)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %v: %v", requests[i], err)
		}
		if suites[i] != suites[0] {
			t.Fatalf("request %v got a different *Suite", requests[i])
		}
	}
	ls := r.suites[wl]
	for _, m := range AllModels {
		if n := ls.trains[m].Load(); n != 1 {
			t.Errorf("%s trained %d times, want once", m, n)
		}
	}
	requireSameSuiteBits(t, "overlapping requests", suites[0], full)
}

// TestSuiteConsumersTrain pins what each path trains. Suite(w) and MPGraph —
// the path mpgraph-serve takes — train the phase-specific pair; Prefetchers
// adds the three models its baselines read. With a checkpoint store all ten
// train, and a second runner resumes them from the store without training.
func TestSuiteConsumersTrain(t *testing.T) {
	ref, _ := faultSuiteRef(t)
	wl := ref.Opt.Workloads()[0]
	pair := []SuiteModel{PSDelta, PSPage}
	check := func(name string, r *Runner, want []SuiteModel) {
		t.Helper()
		if got := r.Trained(wl); !slices.Equal(got, want) {
			t.Fatalf("%s trained %v, want %v", name, got, want)
		}
	}

	r := runnerOn(ref, ref.Opt)
	s, err := r.Suite(wl)
	if err != nil {
		t.Fatal(err)
	}
	check("Suite(w)", r, pair)
	if got := published(s); !slices.Equal(got, pair) {
		t.Fatalf("Suite(w) published %v, want %v", got, pair)
	}
	if _, err := r.MPGraph(wl, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	check("MPGraph", r, pair)
	if _, err := r.Prefetchers(wl); err != nil {
		t.Fatal(err)
	}
	check("Prefetchers", r, []SuiteModel{LSTMDelta, AttnDelta, PSDelta, LSTMPage, PSPage})

	o := ref.Opt
	o.CheckpointDir = t.TempDir()
	r = runnerOn(ref, o)
	if _, err := r.Suite(wl); err != nil {
		t.Fatal(err)
	}
	check("Suite(w) with a store", r, AllModels)

	o.Resume = true
	r = runnerOn(ref, o)
	if s, err = r.Suite(wl); err != nil {
		t.Fatal(err)
	}
	check("resumed Suite(w)", r, nil)
	if got := published(s); !slices.Equal(got, AllModels) {
		t.Fatalf("resumed suite published %v, want every model", got)
	}
	st, err := r.Store()
	if err != nil {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.Hits != 1 || stats.Misses != 0 {
		t.Fatalf("resume: %+v, want the suite checkpoint as one hit", stats)
	}
}

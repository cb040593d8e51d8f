package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/nn"
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
	wp := suiteModule(want, m).Params()
	for pi, p := range suiteModule(got, m).Params() {
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

// suiteModule is model m's field of s, which SuiteModel.String names.
func suiteModule(s *Suite, m SuiteModel) nn.Module {
	return reflect.ValueOf(s).Elem().FieldByName(m.String()).Interface().(nn.Module)
}

// published lists the models whose Suite field is set, in field order.
func published(s *Suite) []SuiteModel {
	var out []SuiteModel
	for _, m := range AllModels {
		if !reflect.ValueOf(suiteModule(s, m)).IsNil() {
			out = append(out, m)
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
				if err := r.train(wl, ls, s, alone); err != nil {
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
// adds the three models its baselines read. With a checkpoint store
// Suite(w) trains all ten and saves each as its own record
// (TestCheckpointResumePerModel resumes them).
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
	requireRecords(t, "Suite(w) with a store", r, wl, AllModels, 10)
}

// requireRecords fails unless r's store holds a model record for exactly
// the models in want, and r saved saves records.
func requireRecords(t *testing.T, name string, r *Runner, wl Workload, want []SuiteModel, saves uint64) {
	t.Helper()
	st, err := r.Store()
	if err != nil {
		t.Fatal(err)
	}
	var got []SuiteModel
	for _, m := range AllModels {
		if st.Verify(modelKey(wl, m)) == nil {
			got = append(got, m)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the store holds records of %v, want %v", name, got, want)
	}
	if n := st.Stats().Saves; n != saves {
		t.Fatalf("%s saved %d records, want %d", name, n, saves)
	}
}

// TestCheckpointResumePerModel: a checkpoint record holds one model. A
// resuming runner restores every model that has a record, with no training
// run and the bits of a store-less run, and trains and saves only a model
// whose record is missing. The records outlive a change to the simulation
// cap (MaxTestAccesses), which no model reads. make race runs it at
// GOMAXPROCS 1 and 2.
func TestCheckpointResumePerModel(t *testing.T) {
	ref, full := faultSuiteRef(t)
	wl := ref.Opt.Workloads()[0]
	o := ref.Opt
	o.CheckpointDir = t.TempDir()
	saver := runnerOn(ref, o)
	if _, err := saver.Suite(wl); err != nil {
		t.Fatal(err)
	}
	st, err := saver.Store()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.Path(modelKey(wl, LSTMDelta))); err != nil {
		t.Fatal(err)
	}

	o.Resume = true
	counter := resilience.NewInjector(1).ArmProb(resilience.PointTrainEpoch, resilience.KindErr, 0)
	o.Injector = counter
	r := runnerOn(ref, o)
	s, err := r.Suite(wl)
	if err != nil {
		t.Fatal(err)
	}
	if got := published(s); !slices.Equal(got, AllModels) {
		t.Fatalf("resumed Suite(w) published %v, want every model", got)
	}
	if got := r.Trained(wl); !slices.Equal(got, []SuiteModel{LSTMDelta}) {
		t.Fatalf("resumed Suite(w) trained %v, want the model without a record alone", got)
	}
	if hits, want := counter.Hits(resilience.PointTrainEpoch), uint64(o.Epochs); hits != want {
		t.Fatalf("resumed Suite(w) ran %d training epochs, want %d (LSTMDelta's)", hits, want)
	}
	requireSameSuiteBits(t, "resumed", s, full)
	requireRecords(t, "resumed Suite(w)", r, wl, AllModels, 1)
	if st, _ := r.Store(); st.Stats().Hits != 9 || st.Stats().Misses != 1 {
		t.Fatalf("resume: %+v, want nine records hit and LSTMDelta's missed", st.Stats())
	}

	o.MaxTestAccesses /= 2
	trap := resilience.NewInjector(1).Arm(resilience.PointTrainEpoch, resilience.KindErr, 1)
	o.Injector = trap
	if _, err := runnerOn(ref, o).Suite(wl); err != nil {
		t.Fatalf("resume at another MaxTestAccesses: %v", err)
	}
	if hits := trap.Hits(resilience.PointTrainEpoch); hits != 0 {
		t.Fatalf("resume at another MaxTestAccesses ran %d training epochs, want 0", hits)
	}
}

// TestCheckpointSaveFailureRetries: a model whose save fails stays
// unpublished and the next call trains and saves it again, while the models
// saved beside it stay published and train once.
func TestCheckpointSaveFailureRetries(t *testing.T) {
	ref, full := faultSuiteRef(t)
	wl := ref.Opt.Workloads()[0]
	o := ref.Opt
	o.CheckpointDir = t.TempDir()
	o.Injector = resilience.NewInjector(1).Arm(resilience.PointCheckpointIO, resilience.KindErr, 1)
	r := runnerOn(ref, o)
	s, err := r.Suite(wl)
	var ie *resilience.InjectedError
	if !errors.As(err, &ie) || ie.Point != resilience.PointCheckpointIO {
		t.Fatalf("Suite = %v, want the injected checkpoint-io fault", err)
	}
	saved := published(s)
	if len(saved) != len(AllModels)-1 {
		t.Fatalf("published %v after one of ten saves failed, want the nine saved models", saved)
	}
	if s, err = r.Suite(wl); err != nil {
		t.Fatalf("retry after the failed save: %v", err)
	}
	for _, m := range AllModels {
		runs := int32(2)
		if slices.Contains(saved, m) {
			runs = 1
		}
		if n := r.suites[wl].trains[m].Load(); n != runs {
			t.Fatalf("%s trained %d times, want %d", m, n, runs)
		}
	}
	requireSameSuiteBits(t, "after a failed save", s, full)
	requireRecords(t, "the retry", r, wl, AllModels, 10)
}

// TestSweepSingleFlight: two concurrent sweeps on one runner share one run —
// sweep-worker fires exactly once per (workload, prefetcher) pair — and get
// the same rows.
func TestSweepSingleFlight(t *testing.T) {
	ref, _ := faultSuiteRef(t)
	o := ref.Opt
	counter := resilience.NewInjector(1).ArmProb(resilience.PointSweepWorker, resilience.KindErr, 0)
	o.Injector = counter
	r := runnerOn(ref, o)
	var rows [2]map[string][]prefetchRow
	var errs [2]error
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], _, errs[i] = runPrefetchSweep(r)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if reflect.ValueOf(rows[0]).Pointer() != reflect.ValueOf(rows[1]).Pointer() {
		t.Fatal("the two sweeps returned different rows")
	}
	pairs := 0
	for _, rs := range rows[0] {
		pairs += len(rs)
	}
	if hits := counter.Hits(resilience.PointSweepWorker); hits != uint64(pairs) {
		t.Fatalf("sweep-worker fired %d times, want %d (once per workload and prefetcher)", hits, pairs)
	}
}

package experiments

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/resilience"
)

// faultOptions is the smallest configuration that still exercises every
// pipeline stage — the fault-injection tests build several fresh runners
// (no shared cache), so they run at a scale below even tinyOptions.
func faultOptions() Options {
	o := DefaultOptions()
	o.GraphScale = 9
	o.Apps = []frameworks.App{frameworks.PR}
	o.TraceIterations = 3
	o.MaxTestAccesses = 8_000
	o.TrainSamples = 50
	o.EvalSamples = 30
	o.Epochs = 1
	return o
}

// TestCellRetryAfterError is the regression test for cell poisoning: an
// injected once-failing artifact build must fail the first Data call and
// succeed on retry. The old sync.Once cell cached the transient error
// forever.
func TestCellRetryAfterError(t *testing.T) {
	o := faultOptions()
	o.Injector = resilience.NewInjector(1).Arm(resilience.PointArtifactBuild, resilience.KindErr, 1)
	r := NewRunner(o)
	wl := o.Workloads()[0]

	_, err := r.Data(wl)
	var ie *resilience.InjectedError
	if !errors.As(err, &ie) || ie.Point != resilience.PointArtifactBuild {
		t.Fatalf("first Data call = %v, want injected artifact-build fault", err)
	}

	d, err := r.Data(wl)
	if err != nil {
		t.Fatalf("retry after transient failure: %v (cell poisoned?)", err)
	}
	if len(d.TestRaw) == 0 {
		t.Fatal("retried compute incomplete")
	}
	d2, err := r.Data(wl)
	if err != nil || d2 != d {
		t.Fatal("successful compute must stay cached single-flight")
	}
}

// TestCellRetryAfterPanic: an injected panic inside the compute is recovered
// at the cell boundary into a *resilience.PanicError and is equally
// retryable.
func TestCellRetryAfterPanic(t *testing.T) {
	o := faultOptions()
	o.Injector = resilience.NewInjector(1).Arm(resilience.PointArtifactBuild, resilience.KindPanic, 1)
	r := NewRunner(o)
	wl := o.Workloads()[0]

	_, err := r.Data(wl)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("first Data call = %v, want recovered panic", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered panic lost its stack")
	}
	if _, err := r.Data(wl); err != nil {
		t.Fatalf("retry after recovered panic: %v", err)
	}
}

// renderSweep renders the three sweep tables the figures print — the
// byte-identity oracle shared by the determinism and resume tests.
func renderSweep(rows map[string][]prefetchRow, order []string) []byte {
	var buf bytes.Buffer
	printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.Accuracy() })
	printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.Coverage() })
	printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.IPCImprovement(r.Baseline) })
	return buf.Bytes()
}

// TestCrashResumeByteIdentical kills a checkpointing sweep mid-flight with
// an injected worker panic, then resumes from the checkpoints and requires
// the finished report to be byte-identical to an uncheckpointed clean run.
// The resuming runner's train-epoch point is armed to fail on first hit, so
// the test also proves resume restored the trained suites instead of
// silently retraining them.
func TestCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := faultOptions()

	// Clean reference run: no checkpoints anywhere.
	ref := NewRunner(base)
	refRows, refOrder, err := computePrefetchSweep(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSweep(refRows, refOrder)

	// Run A: checkpointing enabled; the second sweep task panics, killing
	// the sweep after the artifacts were built and saved.
	optA := base
	optA.CheckpointDir = dir
	optA.Injector = resilience.NewInjector(1).Arm(resilience.PointSweepWorker, resilience.KindPanic, 2)
	ra := NewRunner(optA)
	_, _, err = computePrefetchSweep(ra)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("crashed sweep = %v, want recovered worker panic", err)
	}

	// Run B: resume. Training is booby-trapped — if the suites were not
	// restored from checkpoints, the armed train-epoch fault would fail the
	// sweep on the very first epoch.
	optB := base
	optB.CheckpointDir = dir
	optB.Resume = true
	inB := resilience.NewInjector(1).Arm(resilience.PointTrainEpoch, resilience.KindErr, 1)
	optB.Injector = inB
	rb := NewRunner(optB)
	rows, order, err := computePrefetchSweep(rb)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got := renderSweep(rows, order); !bytes.Equal(got, want) {
		t.Fatalf("resumed report not byte-identical to clean run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	st, err := rb.Store()
	if err != nil {
		t.Fatal(err)
	}
	wls := len(base.Workloads())
	if hits := st.Stats().Hits; hits != uint64(11*wls) {
		t.Fatalf("resume hit %d checkpoints, want %d (a trace and ten models per workload)", hits, 11*wls)
	}
	if inB.Hits(resilience.PointTrainEpoch) != 0 {
		t.Fatal("resumed run retrained models instead of loading their checkpoints")
	}
}

// TestGuardedSweepDegrades poisons one workload's MPGraph phase models with
// NaN and requires the sweep to complete anyway: score screening flips the
// prefetcher's health, the guard quarantines it onto the warm BO fallback,
// and the degradation events record the whole story. When the CI fault
// harness sets MPGRAPH_DEGRADE_LOG, the event log is written there as the
// uploaded artifact.
func TestGuardedSweepDegrades(t *testing.T) {
	o := faultOptions()
	r := NewRunner(o)
	wl := o.Workloads()[0]
	s, err := r.Suite(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.PSDelta.Params() {
		for i := range p.Data {
			p.Data[i] = math.NaN()
		}
	}

	rows, order, err := computePrefetchSweep(r)
	if err != nil {
		t.Fatalf("sweep with poisoned model must complete via fallback, got: %v", err)
	}
	if len(rows["mpgraph"]) != len(o.Workloads()) {
		t.Fatalf("mpgraph rows = %d, want one per workload (order %v)", len(rows["mpgraph"]), order)
	}
	if r.Events.Count("prefetch/mpgraph", "model-health") == 0 {
		t.Fatalf("no model-health violation recorded; events:\n%v", r.Events.Events())
	}
	if r.Events.Count("prefetch/mpgraph", "quarantine") == 0 {
		t.Fatalf("poisoned mpgraph never quarantined; events:\n%v", r.Events.Events())
	}

	if path := os.Getenv("MPGRAPH_DEGRADE_LOG"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Events.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointDisabledByDefault: without a checkpoint dir every store
// accessor degrades to nil and the pipeline never touches disk.
func TestCheckpointDisabledByDefault(t *testing.T) {
	r := NewRunner(faultOptions())
	st, err := r.Store()
	if err != nil || st != nil {
		t.Fatalf("Store() = %v, %v; want nil, nil", st, err)
	}
	if _, _, ok, err := r.loadTraceCheckpoint(r.Opt.Workloads()[0]); ok || err != nil {
		t.Fatal("trace load without a store must be a silent miss")
	}
}

// TestCheckpointStoreRetry: a store that could not be created is retried by
// the next call, not cached as failed for the runner's life.
func TestCheckpointStoreRetry(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o := faultOptions()
	o.CheckpointDir = filepath.Join(blocker, "dir")
	r := NewRunner(o)
	if _, err := r.Store(); err == nil {
		t.Fatal("a store under a regular file was created")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if st, err := r.Store(); err != nil || st == nil {
		t.Fatalf("Store after its cause was removed = %v, %v; want a store", st, err)
	}
}

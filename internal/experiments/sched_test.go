package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"mpgraph/internal/resilience"
)

func TestForEachIndexVisitsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 100} {
		hits := make([]atomic.Int64, 37)
		if err := forEachIndex(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
	if err := forEachIndex(0, 4, func(int) error {
		t.Fatal("fn called on empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Whatever the execution order, the reported error must be the one a serial
// loop would have stopped at: the lowest failing index.
func TestForEachIndexFirstErrorByIndex(t *testing.T) {
	failAt := map[int]bool{3: true, 11: true, 17: true}
	for _, workers := range []int{1, 4} {
		err := forEachIndex(20, workers, func(i int) error {
			if failAt[i] {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("workers=%d: err = %v, want lowest failing index (3)", workers, err)
		}
	}
}

// TestForEachIndexRecoversPanic: a task panicking at a middle index must not
// crash the pool — it is recovered into that slot's error carrying the
// captured stack, and lowest-index-wins still holds against a plain error at
// a later index.
func TestForEachIndexRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := forEachIndex(20, workers, func(i int) error {
			switch i {
			case 9:
				panic(fmt.Sprintf("boom at %d", i))
			case 15:
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want recovered panic from index 9", workers, err)
		}
		if pe.Value != "boom at 9" || pe.Boundary != "experiments.forEachIndex" {
			t.Fatalf("workers=%d: recovered %q at boundary %q", workers, pe.Value, pe.Boundary)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic lost its stack", workers)
		}
	}
}

// TestSweepParallelMatchesSerial reruns the full prefetcher sweep serially
// and with a 4-worker pool and requires identical rows plus byte-identical
// rendered report tables — the scheduler's determinism contract. Under
// -race this doubles as the concurrency gate for the parallel sweep.
func TestSweepParallelMatchesSerial(t *testing.T) {
	orig := shared.Opt.Workers
	defer func() { shared.Opt.Workers = orig }()

	render := func(rows map[string][]prefetchRow, order []string) []byte {
		var buf bytes.Buffer
		printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.Accuracy() })
		printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.Coverage() })
		printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.IPCImprovement(r.Baseline) })
		return buf.Bytes()
	}

	shared.Opt.Workers = 1
	sRows, sOrder, err := computePrefetchSweep(shared)
	if err != nil {
		t.Fatal(err)
	}
	shared.Opt.Workers = 4
	pRows, pOrder, err := computePrefetchSweep(shared)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(sOrder, pOrder) {
		t.Fatalf("prefetcher order differs:\nserial:   %v\nparallel: %v", sOrder, pOrder)
	}
	if !reflect.DeepEqual(sRows, pRows) {
		t.Fatal("parallel sweep rows differ from serial")
	}
	if !bytes.Equal(render(sRows, sOrder), render(pRows, pOrder)) {
		t.Fatal("parallel sweep report is not byte-identical to serial")
	}
}

// TestSweepBatchByteIdentical reruns the sweep unbatched (Batch=0) and with
// the batched inference tier at every batch size and worker count and
// requires byte-identical rendered reports — an unbatched call is the B=1
// case of the batched kernels, and the scheduler's results are independent
// of batch composition, end to end. Under -race this doubles as the
// concurrency gate for the batch tier.
func TestSweepBatchByteIdentical(t *testing.T) {
	origW, origB := shared.Opt.Workers, shared.Opt.Batch
	defer func() {
		shared.Opt.Workers, shared.Opt.Batch = origW, origB
		shared.batchSched = nil
	}()

	render := func(rows map[string][]prefetchRow, order []string) []byte {
		var buf bytes.Buffer
		printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.Accuracy() })
		printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.Coverage() })
		printPrefetchTable(&buf, rows, order, func(r prefetchRow) float64 { return r.Metrics.IPCImprovement(r.Baseline) })
		return buf.Bytes()
	}

	var want []byte
	for _, batch := range []int{0, 1, 8, 64} {
		for _, workers := range []int{1, 4} {
			shared.Opt.Batch, shared.Opt.Workers = batch, workers
			// Fresh scheduler per configuration: the cached one was built
			// for the previous batch size.
			shared.batchSched = nil
			rows, order, err := computePrefetchSweep(shared)
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
			}
			got := render(rows, order)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("batch=%d workers=%d: sweep report differs from batch=0 workers=1", batch, workers)
			}
		}
	}
}

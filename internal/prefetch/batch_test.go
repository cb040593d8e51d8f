package prefetch

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
)

// batchModels is the batch tier's test fleet: the tiny trained pair serves
// phase 0, and an untrained attention delta model beside the trained page
// model serves phase 1, so a scheduler round mixes delta and page calls of
// two delta models, each run through its own batched kernel.
type batchModels struct {
	T      int
	deltas []models.DeltaModel
	pages  []models.PageModel
}

func newBatchModels(t *testing.T) batchModels {
	t.Helper()
	ds, delta, page := tinyTrainedModels(t)
	return batchModels{
		T:      ds.Cfg.HistoryT,
		deltas: []models.DeltaModel{delta, models.NewAttnDelta(ds.Cfg, 7)},
		pages:  []models.PageModel{page, page},
	}
}

// worker builds one serving session's MPGraph, the batch tier's one client:
// its model calls go through sched, or run unbatched when sched is nil.
func (bm batchModels) worker(t *testing.T, sched *BatchScheduler) *core.MPGraph {
	t.Helper()
	opt := core.DefaultOptions()
	opt.OraclePhase = true
	if sched != nil {
		opt.Scheduler = sched.NewSession()
	}
	m, err := core.New(opt, bm.T, nil, slices.Clone(bm.deltas), slices.Clone(bm.pages))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// workerAccess is worker w's deterministic access stream, fixed by w alone so
// the worker's outputs must be identical under any worker count or batch
// size. It walks the pages the models were trained on, so chains run past
// the first page-table lookup, and switches phase every 20 accesses.
func workerAccess(w, i int) sim.LLCAccess {
	return sim.LLCAccess{
		Block: uint64(1<<20+256*w) + uint64(i+i/2),
		PC:    0x40 * uint64((w+i)%3),
		Phase: uint8((w + i/20) % 2),
	}
}

// unbatchedOutputs is worker w's output sequence from an MPGraph without a
// scheduler: the reference every batched run must reproduce.
func (bm batchModels) unbatchedOutputs(t *testing.T, w, accesses int) [][]uint64 {
	m := bm.worker(t, nil)
	out := make([][]uint64, accesses)
	for i := range out {
		out[i] = slices.Clone(m.Operate(workerAccess(w, i)))
	}
	return out
}

// checkOutputs fails t at worker w's first access whose prefetches differ
// from the reference.
func checkOutputs(t *testing.T, label string, w int, got, want [][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s worker %d: %d accesses, reference %d", label, w, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s worker %d access %d: %v, unbatched %v", label, w, i, got[i], want[i])
		}
	}
}

// runBatchWorkers simulates nWorkers concurrent MPGraph sessions through one
// shared BatchScheduler and returns each worker's full output sequence. Every
// session joins before any starts, so rounds fill even on one P.
func (bm batchModels) runBatchWorkers(t *testing.T, nWorkers, batch, accesses int) [][][]uint64 {
	t.Helper()
	sched := NewBatchScheduler(batch)
	results := make([][][]uint64, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		m := bm.worker(t, sched)
		m.JoinBatch()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer m.LeaveBatch()
			for i := 0; i < accesses; i++ {
				results[w] = append(results[w], slices.Clone(m.Operate(workerAccess(w, i))))
			}
		}(w)
	}
	wg.Wait()
	return results
}

// TestBatchSchedulerByteIdentical: worker w's prefetch sequence through the
// shared scheduler is the unbatched MPGraph's on the same stream — an
// unbatched call is the B=1 case of the same kernels, and the grouping a
// round happens to pick under scheduling races never leaks into results.
// Run with -race in CI.
func TestBatchSchedulerByteIdentical(t *testing.T) {
	bm := newBatchModels(t)
	const accesses = 60
	ref := make([][][]uint64, 8)
	for w := range ref {
		ref[w] = bm.unbatchedOutputs(t, w, accesses)
	}
	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 8, 64} {
			got := bm.runBatchWorkers(t, workers, batch, accesses)
			for w := range got {
				checkOutputs(t, fmt.Sprintf("workers=%d batch=%d", workers, batch), w, got[w], ref[w])
			}
		}
	}
}

// TestBatchMatchesUnbatchedPrefetches: three sessions sharing a batch-8
// scheduler issue the unbatched MPGraph's prefetches on the same streams (an
// unbatched call is the B=1 case of the same kernels, so the scores are the
// same bits).
func TestBatchMatchesUnbatchedPrefetches(t *testing.T) {
	bm := newBatchModels(t)
	const accesses = 60
	batched := bm.runBatchWorkers(t, 3, 8, accesses)
	for w := range batched {
		checkOutputs(t, "batched", w, batched[w], bm.unbatchedOutputs(t, w, accesses))
	}
}

// TestBatchUnjoinedSessionFlushesImmediately: a session that submits without
// Join (e.g. an ablation running a single prefetcher serially) must not
// deadlock — the watermark clamps to one outstanding request.
func TestBatchUnjoinedSessionFlushesImmediately(t *testing.T) {
	bm := newBatchModels(t)
	m := bm.worker(t, NewBatchScheduler(64))
	var out []uint64
	for i := 0; i < bm.T+5; i++ {
		out = m.Operate(workerAccess(0, i))
	}
	if len(out) == 0 {
		t.Fatal("unjoined batch session produced no prefetches after warm-up")
	}
}

// countingDelta counts live-ctx inferences of the wrapped delta model.
type countingDelta struct {
	models.DeltaModel
	calls int
}

func (c *countingDelta) DeltaScoresCtx(ctx *tensor.Ctx, s *models.Sample) []float64 {
	c.calls++
	return c.DeltaModel.DeltaScoresCtx(ctx, s)
}

// TestVoyagerOneDeltaInferencePerOperate: Voyager decodes one delta score
// vector at both bases (the current block and the predicted page), so an
// Operate costs exactly one delta inference. The trace walks the pages the
// models were trained on, so the page-relative half is exercised.
func TestVoyagerOneDeltaInferencePerOperate(t *testing.T) {
	ds, delta, page := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	const accesses = 200
	access := func(i int) sim.LLCAccess {
		return sim.LLCAccess{Block: uint64(1<<20) + uint64(i+i/2), PC: 0x40 * uint64(i%3)}
	}

	counted := &countingDelta{DeltaModel: delta}
	plain := NewVoyager(page, counted, T, MLOptions{Degree: 6})
	pageRelative := 0
	for i := 0; i < accesses; i++ {
		if len(plain.Operate(access(i))) > 3 {
			pageRelative++
		}
	}
	if pageRelative == 0 {
		t.Fatal("no Operate reached the predicted-page decode; the trace does not exercise it")
	}
	if want := accesses - (T - 1); counted.calls != want {
		t.Fatalf("%d delta inferences over %d inferring Operates, want one each", counted.calls, want)
	}
}

// TestBatchSchedulerJoinLeaveChurn mirrors the serving daemon's per-chunk
// membership protocol under -race: workers repeatedly Join, run a short
// burst, and Leave (an evicted session idles between feeds), with a third
// of the fleet retiring early. However membership churns, each worker's
// output sequence must stay a pure function of its own stream — compared
// here against an unbatched reference — and every round's flush watermark
// must keep the survivors live.
func TestBatchSchedulerJoinLeaveChurn(t *testing.T) {
	bm := newBatchModels(t)
	const (
		nWorkers = 12
		rounds   = 8
		perRound = 10
	)
	sched := NewBatchScheduler(8)
	results := make([][][]uint64, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		m := bm.worker(t, sched)
		// Workers 8..11 retire after shrinking round counts, so later
		// rounds run with a strictly smaller joined set.
		myRounds := rounds
		if w >= 8 {
			myRounds = rounds - (w - 7)
		}
		wg.Add(1)
		go func(w, myRounds int) {
			defer wg.Done()
			i := 0
			for r := 0; r < myRounds; r++ {
				m.JoinBatch()
				// Let the others join too, so rounds fill even on one P.
				runtime.Gosched()
				for k := 0; k < perRound; k++ {
					results[w] = append(results[w], slices.Clone(m.Operate(workerAccess(w, i))))
					i++
				}
				m.LeaveBatch()
			}
		}(w, myRounds)
	}
	wg.Wait()

	for w := 0; w < nWorkers; w++ {
		checkOutputs(t, "churned", w, results[w], bm.unbatchedOutputs(t, w, len(results[w])))
	}
}

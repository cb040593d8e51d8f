package prefetch

import (
	"sync"
	"testing"

	"mpgraph/internal/models"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
)

// batchPF is the surface a batched sweep worker drives.
type batchPF interface {
	sim.Prefetcher
	JoinBatch()
	LeaveBatch()
}

// buildWorkerPF gives worker w a fixed prefetcher identity (cycling the three
// ML baselines so every scheduler round mixes delta and page models).
func buildWorkerPF(w int, delta models.DeltaModel, page models.PageModel, historyT int, opt MLOptions) batchPF {
	switch w % 3 {
	case 0:
		return NewDeltaLSTM(delta, historyT, opt)
	case 1:
		return NewTransFetch(delta, historyT, opt)
	default:
		return NewVoyager(page, delta, historyT, opt)
	}
}

// workerAccess is worker w's deterministic access stream, fixed by w alone so
// the worker's outputs must be identical under any worker count or batch
// size.
func workerAccess(w, i int) sim.LLCAccess {
	return sim.LLCAccess{
		Block: uint64(4096*(w+1) + i + i%3),
		PC:    0x40 * uint64((w+i)%3),
	}
}

// runBatchWorkers simulates nWorkers concurrent prefetcher sessions through
// one shared BatchScheduler and returns each worker's full output sequence.
func runBatchWorkers(t *testing.T, delta models.DeltaModel, page models.PageModel, historyT, nWorkers, batch, accesses int) [][][]uint64 {
	t.Helper()
	sched := NewBatchScheduler(batch)
	opt := MLOptions{Degree: 6, Scheduler: sched}
	results := make([][][]uint64, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		pf := buildWorkerPF(w, delta, page, historyT, opt)
		wg.Add(1)
		go func(w int, pf batchPF) {
			defer wg.Done()
			pf.JoinBatch()
			defer pf.LeaveBatch()
			for i := 0; i < accesses; i++ {
				out := pf.Operate(workerAccess(w, i))
				results[w] = append(results[w], append([]uint64(nil), out...))
			}
		}(w, pf)
	}
	wg.Wait()
	return results
}

// TestBatchSchedulerByteIdentical: worker w's prefetch sequence is a pure
// function of its own stream — the shared scheduler's grouping under
// scheduling races must never leak into results. Run with -race in CI.
func TestBatchSchedulerByteIdentical(t *testing.T) {
	ds, delta, page := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	const accesses = 60

	ref := runBatchWorkers(t, delta, page, T, 8, 1, accesses)
	for _, nWorkers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 8, 64} {
			got := runBatchWorkers(t, delta, page, T, nWorkers, batch, accesses)
			for w := 0; w < nWorkers; w++ {
				if len(got[w]) != len(ref[w]) {
					t.Fatalf("workers=%d batch=%d: worker %d made %d calls, ref %d",
						nWorkers, batch, w, len(got[w]), len(ref[w]))
				}
				for i := range got[w] {
					if len(got[w][i]) != len(ref[w][i]) {
						t.Fatalf("workers=%d batch=%d worker %d access %d: %v != ref %v",
							nWorkers, batch, w, i, got[w][i], ref[w][i])
					}
					for j := range got[w][i] {
						if got[w][i][j] != ref[w][i][j] {
							t.Fatalf("workers=%d batch=%d worker %d access %d: %v != ref %v",
								nWorkers, batch, w, i, got[w][i], ref[w][i])
						}
					}
				}
			}
		}
	}
}

// TestBatchUnjoinedSessionFlushesImmediately: a session that submits without
// Join (e.g. an ablation running a single prefetcher serially) must not
// deadlock — the watermark clamps to one outstanding request.
func TestBatchUnjoinedSessionFlushesImmediately(t *testing.T) {
	ds, delta, _ := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	sched := NewBatchScheduler(64)
	pf := NewDeltaLSTM(delta, T, MLOptions{Degree: 6, Scheduler: sched})
	var out []uint64
	for i := 0; i < T+5; i++ {
		out = pf.Operate(workerAccess(0, i))
	}
	if len(out) == 0 {
		t.Fatal("unjoined batch session produced no prefetches after warm-up")
	}
}

// TestBatchMatchesUnbatchedPrefetches: the batch tier must agree with the
// in-process fast path on the decoded prefetch targets (an unbatched call is
// the B=1 case of the same kernels, so the scores are the same bits).
func TestBatchMatchesUnbatchedPrefetches(t *testing.T) {
	ds, delta, page := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	const accesses = 60
	batched := runBatchWorkers(t, delta, page, T, 3, 8, accesses)
	for w := 0; w < 3; w++ {
		pf := buildWorkerPF(w, delta, page, T, MLOptions{Degree: 6})
		for i := 0; i < accesses; i++ {
			out := pf.Operate(workerAccess(w, i))
			if len(out) != len(batched[w][i]) {
				t.Fatalf("%s access %d: batched %v vs unbatched %v", pf.Name(), i, batched[w][i], out)
			}
			for j := range out {
				if out[j] != batched[w][i][j] {
					t.Fatalf("%s access %d: batched %v vs unbatched %v", pf.Name(), i, batched[w][i], out)
				}
			}
		}
	}
}

// countingDelta counts live-ctx inferences of the wrapped delta model (it
// hides the batched capability, so a scheduler round scores it per sample
// through the same counted entry point).
type countingDelta struct {
	models.DeltaModel
	calls int
}

func (c *countingDelta) DeltaScoresCtx(ctx *tensor.Ctx, s *models.Sample) []float64 {
	c.calls++
	return models.DeltaScoresWith(ctx, c.DeltaModel, s)
}

// TestVoyagerOneDeltaInferencePerOperate: Voyager decodes one delta score
// vector at both bases (the current block and the predicted page), so an
// Operate costs exactly one delta inference, and the unbatched prefetcher
// issues exactly what a batch-session one does. The trace walks the pages
// the models were trained on, so the page-relative half is exercised.
func TestVoyagerOneDeltaInferencePerOperate(t *testing.T) {
	ds, delta, page := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	const accesses = 200
	access := func(i int) sim.LLCAccess {
		return sim.LLCAccess{Block: uint64(1<<20) + uint64(i+i/2), PC: 0x40 * uint64(i%3)}
	}

	counted := &countingDelta{DeltaModel: delta}
	plain := NewVoyager(page, counted, T, MLOptions{Degree: 6})
	batched := NewVoyager(page, delta, T, MLOptions{Degree: 6, Scheduler: NewBatchScheduler(8)})
	batched.JoinBatch()
	defer batched.LeaveBatch()

	pageRelative := 0
	for i := 0; i < accesses; i++ {
		got := append([]uint64(nil), plain.Operate(access(i))...)
		want := batched.Operate(access(i))
		if len(got) != len(want) {
			t.Fatalf("access %d: unbatched %v vs batch session %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("access %d: unbatched %v vs batch session %v", i, got, want)
			}
		}
		if len(got) > 3 {
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
	ds, delta, page := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	const (
		nWorkers = 12
		rounds   = 8
		perRound = 10
	)
	sched := NewBatchScheduler(8)
	results := make([][][]uint64, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		pf := buildWorkerPF(w, delta, page, T, MLOptions{Degree: 6, Scheduler: sched})
		// Workers 8..11 retire after shrinking round counts, so later
		// rounds run with a strictly smaller joined set.
		myRounds := rounds
		if w >= 8 {
			myRounds = rounds - (w - 7)
		}
		wg.Add(1)
		go func(w, myRounds int, pf batchPF) {
			defer wg.Done()
			i := 0
			for r := 0; r < myRounds; r++ {
				pf.JoinBatch()
				for k := 0; k < perRound; k++ {
					out := pf.Operate(workerAccess(w, i))
					results[w] = append(results[w], append([]uint64(nil), out...))
					i++
				}
				pf.LeaveBatch()
			}
		}(w, myRounds, pf)
	}
	wg.Wait()

	for w := 0; w < nWorkers; w++ {
		ref := buildWorkerPF(w, delta, page, T, MLOptions{Degree: 6})
		for i := range results[w] {
			want := ref.Operate(workerAccess(w, i))
			if len(results[w][i]) != len(want) {
				t.Fatalf("worker %d access %d: churned %v vs reference %v", w, i, results[w][i], want)
			}
			for j := range want {
				if results[w][i][j] != want[j] {
					t.Fatalf("worker %d access %d: churned %v vs reference %v", w, i, results[w][i], want)
				}
			}
		}
	}
}

package prefetch

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mpgraph/internal/models"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// stepper drives a prefetcher with a 64-block cyclic pattern confined to one
// page, so every table (history, Voyager's page map) reaches steady state
// and stays there.
func stepper(pf sim.Prefetcher) func() {
	i := 0
	return func() {
		i++
		pf.Operate(sim.LLCAccess{Block: uint64(1<<20 + i%64), PC: 0x40 * uint64(i%3)})
	}
}

// checkZeroAlloc warms pf past its history window and arena high-water
// marks, then asserts a steady-state Operate call performs zero heap
// allocations — the fast-path regression gate.
func checkZeroAlloc(t *testing.T, pf sim.Prefetcher, warm int) {
	t.Helper()
	step := stepper(pf)
	for n := 0; n < warm; n++ {
		step()
	}
	if allocs := testing.AllocsPerRun(64, step); allocs != 0 {
		t.Fatalf("steady-state %s.Operate allocates %.1f/op, want 0", pf.Name(), allocs)
	}
}

func TestDeltaLSTMOperateZeroAlloc(t *testing.T) {
	ds, delta, _ := tinyTrainedModels(t)
	checkZeroAlloc(t, NewDeltaLSTM(delta, ds.Cfg.HistoryT, MLOptions{Degree: 6}), ds.Cfg.HistoryT+64)
}

func TestTransFetchOperateZeroAlloc(t *testing.T) {
	ds, delta, _ := tinyTrainedModels(t)
	checkZeroAlloc(t, NewTransFetch(delta, ds.Cfg.HistoryT, MLOptions{Degree: 6}), ds.Cfg.HistoryT+64)
}

// pairedAllocs counts the heap allocations per call of a warmed-up step at
// GOMAXPROCS 2, where a pair posts its page call to a helper goroutine, whose
// allocations the count includes. testing.AllocsPerRun cannot: it runs at
// GOMAXPROCS 1, where a pair never posts. The runtime allocates now and then
// on its own, and an arena grows once when page calls move to the pair's, so
// the count is the quietest of three 64-call windows. It fails t unless pair
// posted page calls inside the windows.
func pairedAllocs(t *testing.T, pair *models.Pair, step func()) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	posted := pair.Helped + pair.Claimed
	least := ^uint64(0)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < 64; n++ {
			step()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if pair.Helped+pair.Claimed == posted {
		t.Fatal("no page call was posted: the pair path was not taken")
	}
	return float64(least) / 64
}

func TestVoyagerOperateZeroAlloc(t *testing.T) {
	ds, delta, page := tinyTrainedModels(t)
	v := NewVoyager(page, delta, ds.Cfg.HistoryT, MLOptions{Degree: 6})
	step := stepper(v)
	for n := 0; n < ds.Cfg.HistoryT+64; n++ {
		step()
	}
	if allocs := pairedAllocs(t, &v.pair, step); allocs != 0 {
		t.Fatalf("steady-state voyager.Operate allocates %.2f/op, want 0", allocs)
	}

	// The stepper's one page never fills the last-offset window. Walk three
	// windows' worth of accesses (> 8192 distinct pages), so all but the first
	// 4096 evict: still no allocation (the map recycles its deleted slots),
	// and the predictions of the slice queue the ring replaced.
	pf := NewVoyager(page, delta, ds.Cfg.HistoryT, MLOptions{Degree: 6})
	ref := &referenceVoyager{Voyager: NewVoyager(page, delta, ds.Cfg.HistoryT, MLOptions{Degree: 6})}
	i := 0
	next := func() sim.LLCAccess {
		i++
		// Every third access returns to a page seen 5000 pages ago: evicted
		// from a 4096-page window, so it re-enters at the tail.
		pg := uint64(i)
		if i%3 == 0 && i > 5000 {
			pg = uint64(i - 5000)
		}
		return sim.LLCAccess{Block: trace.BlockOfPageOffset(1<<8+pg, uint64(i*7%64)), PC: 0x40 * uint64(i%3)}
	}
	for i < 3*voyagerPages {
		acc := next()
		if got, want := pf.Operate(acc), ref.Operate(acc); !slices.Equal(got, want) {
			t.Fatalf("access %d (%+v): got %v, slice-queue reference %v", i, acc, got, want)
		}
	}
	if len(pf.lastOffset) != voyagerPages {
		t.Fatalf("window holds %d pages, want %d", len(pf.lastOffset), voyagerPages)
	}
	if allocs := testing.AllocsPerRun(256, func() { pf.Operate(next()) }); allocs != 0 {
		t.Fatalf("Voyager.Operate over a sliding page window allocates %.2f/op, want 0", allocs)
	}
}

// referenceVoyager is Voyager with its last-offset window on the
// `fifo = fifo[1:]` + append queue it had before ring.
type referenceVoyager struct {
	*Voyager
	queue []uint64
}

func (p *referenceVoyager) Operate(acc sim.LLCAccess) []uint64 {
	page := trace.PageOfBlock(acc.Block)
	if _, seen := p.lastOffset[page]; !seen {
		if len(p.queue) >= 4096 {
			delete(p.lastOffset, p.queue[0])
			p.queue = p.queue[1:]
		}
		p.queue = append(p.queue, page)
	}
	p.lastOffset[page] = trace.BlockOffset(acc.Block)
	p.hist.Push(acc.Block, acc.PC)
	if !p.hist.Warm() {
		return nil
	}
	defer p.ctx.Reset()
	s := p.hist.SampleInto(&p.scratch, 0)
	p.out = p.predict(p.ctx, s, acc.Block, p.out[:0])
	return p.out
}

// benchOperate times steady-state Operate calls (ReportAllocs shows the
// fast-vs-legacy allocation difference in `make bench` output).
func benchOperate(b *testing.B, pf sim.Prefetcher, warm int) {
	step := stepper(pf)
	for n := 0; n < warm; n++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
}

func BenchmarkOperateDeltaLSTM(b *testing.B) {
	ds, delta, _ := tinyTrainedModels(b)
	benchOperate(b, NewDeltaLSTM(delta, ds.Cfg.HistoryT, MLOptions{Degree: 6}), ds.Cfg.HistoryT+64)
}

func BenchmarkOperateTransFetch(b *testing.B) {
	ds, delta, _ := tinyTrainedModels(b)
	benchOperate(b, NewTransFetch(delta, ds.Cfg.HistoryT, MLOptions{Degree: 6}), ds.Cfg.HistoryT+64)
}

// BenchmarkOperateVoyager runs at GOMAXPROCS 1, where the pair never posts,
// and at 2, where the page call can run beside the delta call.
func BenchmarkOperateVoyager(b *testing.B) {
	ds, delta, page := tinyTrainedModels(b)
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			benchOperate(b, NewVoyager(page, delta, ds.Cfg.HistoryT, MLOptions{Degree: 6}), ds.Cfg.HistoryT+64)
		})
	}
}

// TestClassicOperateAllocs is the allocation gate of the seven classic
// prefetchers and of Guarded around one of them. The stream is a lap of
// oracleLLCStream replayed over and over — a bounded working set several
// times what the (shrunken) tables hold, so every eviction ring keeps
// turning inside the measured windows. BO, SMS and IMP must not allocate at
// all. ISB, Domino, Markov and VLDP own their result, ring and scratch
// memory too, but keep their tables in Go maps, and a map under
// insert-after-delete churn may still allocate when it reclaims tombstones:
// they get a budget per lap that a single allocation per Operate would
// exceed a thousandfold.
func TestClassicOperateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mixed := oracleLLCStream(5, 8192)
	// IMP only speaks on an A[B[i]] pair: an index PC streaming through
	// blocks, an indirect PC at coeff*slot + base.
	indirect := make([]sim.LLCAccess, 0, len(mixed))
	for i := 0; len(indirect) < cap(indirect); i++ {
		indirect = append(indirect,
			sim.LLCAccess{Block: uint64(1<<10 + i%2048), PC: 0x400000},
			sim.LLCAccess{Block: uint64(1<<20 + 3*(i%2048)), PC: 0x400040})
	}
	const mapBudget = 8 // allocations per lap of 8192 Operates
	for _, c := range []struct {
		name   string
		pf     sim.Prefetcher
		lap    []sim.LLCAccess
		budget uint64
	}{
		{"bo", NewBO(DefaultBOConfig()), mixed, 0},
		{"sms", NewSMS(SMSConfig{RegionBlocks: 32, ActiveRegions: 16, PatternTable: 64, MaxPrefetches: 6}), mixed, 0},
		{"imp", NewIMP(DefaultIMPConfig()), indirect, 0},
		{"guarded(bo, bo)", NewGuarded(NewBO(DefaultBOConfig()), NewBO(DefaultBOConfig()), GuardConfig{}, nil), mixed, 0},
		{"isb", NewISB(ISBConfig{MaxPairs: 64, Degree: 6}), mixed, mapBudget},
		{"domino", NewDomino(DominoConfig{MaxPairs: 64, Degree: 6}), mixed, mapBudget},
		{"markov", NewMarkov(MarkovConfig{Successors: 4, TableSize: 64, Degree: 6}), mixed, mapBudget},
		{"vldp", NewVLDP(VLDPConfig{HistoryLen: 3, TableSize: 64, Degree: 6}), mixed, mapBudget},
	} {
		issued := 0
		run := func() {
			for _, a := range c.lap {
				issued += len(c.pf.Operate(a))
			}
		}
		run()
		run()
		// Whole laps, counted (AllocsPerRun's integral average would round a
		// few allocations per lap down to 0); the runtime itself allocates now
		// and then, so take the quietest of three laps.
		least := ^uint64(0)
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if least > c.budget {
			t.Errorf("%s: at least %d allocations per %d Operate calls, want at most %d", c.name, least, len(c.lap), c.budget)
		}
		if issued == 0 {
			t.Errorf("%s: vacuous, nothing was ever prefetched", c.name)
		}
	}
}

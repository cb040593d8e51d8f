package prefetch

import (
	"testing"

	"mpgraph/internal/sim"
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

func TestVoyagerOperateZeroAlloc(t *testing.T) {
	ds, delta, page := tinyTrainedModels(t)
	checkZeroAlloc(t, NewVoyager(page, delta, ds.Cfg.HistoryT, MLOptions{Degree: 6}), ds.Cfg.HistoryT+64)
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

func BenchmarkOperateVoyager(b *testing.B) {
	ds, delta, page := tinyTrainedModels(b)
	benchOperate(b, NewVoyager(page, delta, ds.Cfg.HistoryT, MLOptions{Degree: 6}), ds.Cfg.HistoryT+64)
}

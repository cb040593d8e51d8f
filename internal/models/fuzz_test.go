package models

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzLoadPrefetcherModels pins the snapshot loaders' contract on outside
// bytes (mpgraph-sim loads whatever file it is given; both the float64 MPSF
// and the binary16 MPSH layouts come through here): an error, or a
// configuration that validates and one delta and one page model per phase —
// never a panic, and no allocation past what the header limits allow: one
// phase's parameters (maxSnapshotPhaseParam, checkSnapshotSize) plus a
// multiple of the input, since every further allocation waits for the bytes
// before it. The seed corpus under testdata/fuzz holds a tiny
// snapshot of each layout, the Heads = 0 header that once divided by zero, and
// a NumSegments × SegmentBits that wrapped to 0 and once reached makeslice
// with a negative length.
func FuzzLoadPrefetcherModels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pm, err := LoadPrefetcherModels(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+8*maxSnapshotPhaseParam+4<<20); grew > bound {
			t.Fatalf("loading %d bytes allocated %d, over %d", len(data), grew, bound)
		}
		if err != nil {
			if pm != nil {
				t.Fatalf("error %v came with an artifact", err)
			}
			return
		}
		if err := pm.Cfg.Validate(); err != nil {
			t.Fatalf("loaded an invalid configuration: %v", err)
		}
		if pm.NumPhases() < 1 || len(pm.PageMs) != pm.NumPhases() || pm.Pages == nil || pm.PCs == nil {
			t.Fatalf("loaded %d delta and %d page models", pm.NumPhases(), len(pm.PageMs))
		}
	})
}

// TestSnapshotPhaseParamsCounts: the loader's size bound counts exactly the
// parameters NewAMMADelta and NewAMMAPage allocate.
func TestSnapshotPhaseParamsCounts(t *testing.T) {
	for _, cfg := range []Config{SmallConfig(), PaperConfig()} {
		pages, pcs := BuildVocab([]uint64{1}, cfg.PageVocab), BuildVocab([]uint64{1}, cfg.PCVocab)
		var n int64
		for _, p := range append(NewAMMADelta(cfg, pcs, 0, 1).Params(), NewAMMAPage(cfg, pages, pcs, 0, 1).Params()...) {
			n += int64(len(p.Data))
		}
		if got := snapshotPhaseParams(cfg); got != n {
			t.Fatalf("%+v: snapshotPhaseParams %d, the models hold %d", cfg, got, n)
		}
		if err := checkSnapshotSize(cfg); err != nil {
			t.Fatalf("a configuration the repository trains is refused: %v", err)
		}
	}
}

package models

import (
	"fmt"
	"math"
	"testing"

	"mpgraph/internal/tensor"
)

// batchSamples builds B distinct same-length samples inside the test vocabs.
func batchSamples(cfg Config, b int) []*Sample {
	ss := make([]*Sample, b)
	for i := 0; i < b; i++ {
		blocks := make([]uint64, cfg.HistoryT)
		pcs := make([]uint64, cfg.HistoryT)
		for j := range blocks {
			blocks[j] = uint64(1<<14+(i*3+j)%40)<<6 + uint64((i+j)%7)
			pcs[j] = 0x400000 + 0x40*uint64((i+j)%5)
		}
		ss[i] = &Sample{Blocks: blocks, PCs: pcs, Phase: i % 3}
	}
	return ss
}

func batchTestVocabs(cfg Config) (pages, pcs *Vocab) {
	var pcVals, pageVals []uint64
	for i := 0; i < 40; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	return BuildVocab(pageVals, cfg.PageVocab), BuildVocab(pcVals, cfg.PCVocab)
}

// kernelPaths runs f once on the machine's own kernels and once with the
// portable scalar fallback forced, so an AVX-512 host also pins the contract
// non-amd64 and pre-AVX-512 builds rely on.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("native", f)
	t.Run("portable", func(t *testing.T) {
		defer tensor.ForcePortableKernels()()
		f(t)
	})
}

// TestBatchMatchesSequential: sequential float inference is the B=1 case of
// the batched forward, so batched scores must equal sequential fast-path
// scores bit for bit per model at B ∈ {1, 8, 64} (page lists exactly), on
// the AVX-512F kernels and on the portable fallback alike. This is the
// property that keeps sweep reports byte-identical across batch sizes,
// unbatched included. The panel kernels tile a whole number of T = 9 windows
// differently from any other row count (tensor.WindowRows), so the same holds
// at T = 7 — one sequence on the four-row tiles, nine stacked (63 and 126
// rows) on window tiles that straddle sequences.
func TestBatchMatchesSequential(t *testing.T) {
	kernelPaths(t, func(t *testing.T) { testBatchMatchesSequential(t, SmallConfig(), 1, 8, 64) })
	t.Run("T=7", func(t *testing.T) {
		cfg := SmallConfig()
		cfg.HistoryT = 7
		kernelPaths(t, func(t *testing.T) { testBatchMatchesSequential(t, cfg, 1, 9) })
	})
}

// TestHistoryIsOneWindow: both shipped configurations run the history length
// the panel tier's nine-row tile is cut for.
func TestHistoryIsOneWindow(t *testing.T) {
	if p, s := PaperConfig().HistoryT, SmallConfig().HistoryT; p != tensor.WindowRows || s != tensor.WindowRows {
		t.Fatalf("HistoryT is %d (paper) / %d (small), tensor.WindowRows is %d", p, s, tensor.WindowRows)
	}
}

func testBatchMatchesSequential(t *testing.T, cfg Config, batches ...int) {
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	deltaModels := map[string]DeltaModel{
		"lstm-delta": NewLSTMDelta(cfg, 1),
		"attn-delta": NewAttnDelta(cfg, 2),
		"amma-delta": NewAMMADelta(cfg, pcs, 0, 3),
		"pi-delta":   NewAMMADelta(cfg, pcs, 3, 4),
	}
	pageModels := map[string]PageModel{
		"lstm-page": NewLSTMPage(cfg, pages, pcs, 6),
		"attn-page": NewAttnPage(cfg, pages, pcs, 7),
		"amma-page": NewAMMAPage(cfg, pages, pcs, 0, 8),
		"pi-page":   NewAMMAPage(cfg, pages, pcs, 3, 9),
	}

	seqCtx := tensor.NewCtx()
	for _, B := range batches {
		ss := batchSamples(cfg, B)
		for name, m := range deltaModels {
			ctx := tensor.NewCtx()
			out := DeltaScoresBatchWith(ctx, m, ss)
			if out.Rows != B {
				t.Fatalf("%s B=%d: got %d rows", name, B, out.Rows)
			}
			for i, s := range ss {
				seq := DeltaScoresWith(seqCtx, m, s)
				row := out.Data[i*out.Cols : (i+1)*out.Cols]
				if len(seq) != len(row) {
					t.Fatalf("%s B=%d: row %d width %d vs %d", name, B, i, len(row), len(seq))
				}
				for j := range seq {
					if math.Float64bits(seq[j]) != math.Float64bits(row[j]) {
						t.Fatalf("%s B=%d row %d: score[%d] = %x batched vs %x sequential",
							name, B, i, j, math.Float64bits(row[j]), math.Float64bits(seq[j]))
					}
				}
				seqCtx.Reset()
			}
		}
		for name, m := range pageModels {
			ctx := tensor.NewCtx()
			dst := make([][]uint64, B)
			TopPagesBatchWith(ctx, m, ss, 3, dst)
			for i, s := range ss {
				seq := TopPagesWith(seqCtx, m, s, 3, nil)
				seqCtx.Reset()
				if len(seq) != len(dst[i]) {
					t.Fatalf("%s B=%d row %d: %d pages vs %d", name, B, i, len(dst[i]), len(seq))
				}
				for j := range seq {
					if seq[j] != dst[i][j] {
						t.Fatalf("%s B=%d row %d: page[%d] = %d batched vs %d sequential",
							name, B, i, j, dst[i][j], seq[j])
					}
				}
			}
		}
	}
}

// TestBatchMatchesSequentialInt8: 8-bit-weight mirrors must score batches
// bit-identically to sequential inference at every batch size.
func TestBatchMatchesSequentialInt8(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	qd, err := QuantizeDelta(NewAMMADelta(cfg, pcs, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	qp, err := QuantizePage(NewAMMAPage(cfg, pages, pcs, 3, 8))
	if err != nil {
		t.Fatal(err)
	}

	seqCtx := tensor.NewCtx()
	for _, B := range []int{1, 8, 64} {
		ss := batchSamples(cfg, B)
		ctx := tensor.NewCtx()
		out := DeltaScoresBatchWith(ctx, qd, ss)
		for i, s := range ss {
			seq := DeltaScoresWith(seqCtx, qd, s)
			row := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j := range seq {
				if math.Float64bits(seq[j]) != math.Float64bits(row[j]) {
					t.Fatalf("int8 delta B=%d row %d: score[%d] = %x batched vs %x sequential",
						B, i, j, math.Float64bits(row[j]), math.Float64bits(seq[j]))
				}
			}
			seqCtx.Reset()
		}

		dst := make([][]uint64, B)
		TopPagesBatchWith(ctx, qp, ss, 3, dst)
		for i, s := range ss {
			seq := TopPagesWith(seqCtx, qp, s, 3, nil)
			seqCtx.Reset()
			if len(seq) != len(dst[i]) {
				t.Fatalf("int8 page B=%d row %d: %d pages vs %d", B, i, len(dst[i]), len(seq))
			}
			for j := range seq {
				if seq[j] != dst[i][j] {
					t.Fatalf("int8 page B=%d row %d: page[%d] = %d vs %d", B, i, j, dst[i][j], seq[j])
				}
			}
		}
	}
}

// TestBatchZeroAlloc proves the forward stays 0 allocs/op — one sample
// through the sequential entry point, and stacked at batch 8 and 64 — once
// the arena is warm, on both kernel paths.
func TestBatchZeroAlloc(t *testing.T) {
	kernelPaths(t, testBatchZeroAlloc)
}

func testBatchZeroAlloc(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	qd, err := QuantizeDelta(NewAMMADelta(cfg, pcs, 3, 3))
	if err != nil {
		t.Fatal(err)
	}

	wantZero := func(name string, f func(c *tensor.Ctx)) {
		t.Helper()
		ctx := tensor.NewCtx()
		run := func() {
			f(ctx)
			ctx.Reset()
		}
		// Warm the arena slabs.
		for i := 0; i < 3; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Fatalf("%s: %v allocs/op, want 0", name, avg)
		}
	}

	deltaModels := map[string]DeltaModel{
		"lstm-delta":      NewLSTMDelta(cfg, 1),
		"attn-delta":      NewAttnDelta(cfg, 2),
		"amma-delta":      NewAMMADelta(cfg, pcs, 0, 3),
		"amma-delta-int8": qd,
	}
	for name, m := range deltaModels {
		one := batchSamples(cfg, 1)[0]
		wantZero(name+" sequential", func(c *tensor.Ctx) { DeltaScoresWith(c, m, one) })
		for _, B := range []int{8, 64} {
			ss := batchSamples(cfg, B)
			wantZero(fmt.Sprintf("%s B=%d", name, B), func(c *tensor.Ctx) { DeltaScoresBatchWith(c, m, ss) })
		}
	}
	pageModels := map[string]PageModel{
		"lstm-page":   NewLSTMPage(cfg, pages, pcs, 6),
		"attn-page":   NewAttnPage(cfg, pages, pcs, 7),
		"amma-page":   NewAMMAPage(cfg, pages, pcs, 0, 8),
		"binary-page": NewBinaryPage(cfg, pages, pcs, 9),
	}
	for name, m := range pageModels {
		one := batchSamples(cfg, 1)[0]
		buf := make([]uint64, 0, 8)
		wantZero(name+" sequential", func(c *tensor.Ctx) { buf = TopPagesWith(c, m, one, 3, buf[:0]) })
	}
}

// --- benchmarks: batched next to sequential ---

func benchBatchDelta(b *testing.B, m DeltaModel, batch int, sequential bool) {
	cfg := SmallConfig()
	ss := batchSamples(cfg, batch)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	ctx := tensor.NewCtx()
	// Warm the arena slabs so the steady state (0 allocs/op on the batch
	// path) is what gets measured.
	for i := 0; i < 3; i++ {
		if sequential {
			for _, s := range ss {
				DeltaScoresWith(ctx, m, s)
				ctx.Reset()
			}
		} else {
			DeltaScoresBatchWith(ctx, m, ss)
			ctx.Reset()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sequential {
			for _, s := range ss {
				DeltaScoresWith(ctx, m, s)
				ctx.Reset()
			}
		} else {
			DeltaScoresBatchWith(ctx, m, ss)
			ctx.Reset()
		}
	}
}

// benchDeltaModel is the Delta-LSTM baseline: the Operate{,F32}{,Batch…} rows
// read an LSTM forward (m = 1 recurrent products), not an AMMA one — those
// are the AMMA{Delta,Page} rows below.
func benchDeltaModel() DeltaModel {
	return NewLSTMDelta(SmallConfig(), 1)
}

// One batched pass over 8 or 64 histories next to the same histories scored
// one call at a time. Every pair runs the same kernels on both sides (a
// sequential call is the B=1 batch): the Sequential rows record what stacking
// buys the Delta-LSTM per sample.
func BenchmarkOperateBatch8(b *testing.B)           { benchBatchDelta(b, benchDeltaModel(), 8, false) }
func BenchmarkOperateBatch8Sequential(b *testing.B) { benchBatchDelta(b, benchDeltaModel(), 8, true) }

func BenchmarkOperateBatch64(b *testing.B)           { benchBatchDelta(b, benchDeltaModel(), 64, false) }
func BenchmarkOperateBatch64Sequential(b *testing.B) { benchBatchDelta(b, benchDeltaModel(), 64, true) }

// benchBatchPage is benchBatchDelta for a page model: one top-3 decode per
// history, the call CSTP makes.
func benchBatchPage(b *testing.B, m PageModel, batch int) {
	ss := batchSamples(SmallConfig(), batch)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	ctx := tensor.NewCtx()
	dst := make([][]uint64, batch)
	run := func() {
		for i := range dst {
			dst[i] = dst[i][:0]
		}
		TopPagesBatchWith(ctx, m, ss, 3, dst)
		ctx.Reset()
	}
	for i := 0; i < 3; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// The AMMA model calls themselves — what one MPGraph Operate is 2 to 5 of —
// at both precisions, one history per call and a stacked batch of eight
// (per-sample cost: the Batch8 row over eight).
func benchAMMADelta() *AMMADelta {
	_, pcs := batchTestVocabs(SmallConfig())
	return NewAMMADelta(SmallConfig(), pcs, 0, 3)
}

func benchAMMAPage() *AMMAPage {
	pages, pcs := batchTestVocabs(SmallConfig())
	return NewAMMAPage(SmallConfig(), pages, pcs, 0, 8)
}

func BenchmarkAMMADelta(b *testing.B)       { benchBatchDelta(b, benchAMMADelta(), 1, false) }
func BenchmarkAMMADeltaBatch8(b *testing.B) { benchBatchDelta(b, benchAMMADelta(), 8, false) }
func BenchmarkAMMADeltaF32(b *testing.B) {
	benchBatchDelta(b, NewF32AMMADelta(benchAMMADelta()), 1, false)
}
func BenchmarkAMMADeltaF32Batch8(b *testing.B) {
	benchBatchDelta(b, NewF32AMMADelta(benchAMMADelta()), 8, false)
}

func BenchmarkAMMAPage(b *testing.B)       { benchBatchPage(b, benchAMMAPage(), 1) }
func BenchmarkAMMAPageBatch8(b *testing.B) { benchBatchPage(b, benchAMMAPage(), 8) }
func BenchmarkAMMAPageF32(b *testing.B)    { benchBatchPage(b, NewF32AMMAPage(benchAMMAPage()), 1) }
func BenchmarkAMMAPageF32Batch8(b *testing.B) {
	benchBatchPage(b, NewF32AMMAPage(benchAMMAPage()), 8)
}

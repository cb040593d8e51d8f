package models

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mpgraph/internal/tensor"
)

// f32UlpDist returns the distance in float32 ulps between two float64 scores
// after rounding both to float32 — the natural yardstick for a compute tier
// whose activations carry 24 significand bits.
func f32UlpDist(a, b float64) int64 {
	return int64Abs(orderedF32(float32(a)) - orderedF32(float32(b)))
}

// orderedF32 maps float32 bit patterns onto a monotonic integer line so that
// adjacent floats differ by exactly 1.
func orderedF32(f float32) int64 {
	u := math.Float32bits(f)
	if u&0x80000000 != 0 {
		return -int64(u &^ 0x80000000)
	}
	return int64(u)
}

func int64Abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// maxScoreUlpsF32 is the pinned accuracy bound on raw f32-path scores vs the
// float64 reference, in float32 ulps (ISSUE: explicit max-ulp bound). The
// f32 tier accumulates rounding through ~10 GEMMs plus polynomial
// activations; measured maxima sit well under this across the parity
// datasets.
const maxScoreUlpsF32 = 1 << 12 // 4096 ulps ≈ 4.9e-4 relative

func TestF32DeltaParity(t *testing.T) {
	ds, delta, _, _ := quantParityData(t)
	fm, err := ConvertDeltaF32(delta)
	if err != nil {
		t.Fatal(err)
	}
	ctx := tensor.NewCtx()
	const topD = 8
	var overlapSum float64
	var maxUlp int64
	for _, s := range ds.Samples {
		want := delta.DeltaScoresCtx(nil, s)
		got := fm.DeltaScoresCtx(ctx, s)
		overlapSum += overlapAtK(got, want, topD)
		for i := range want {
			if d := f32UlpDist(got[i], want[i]); d > maxUlp {
				maxUlp = d
			}
		}
		ctx.Reset()
	}
	if avg := overlapSum / float64(len(ds.Samples)); avg < 0.95 {
		t.Fatalf("f32 delta top-%d overlap %.4f < 0.95 over %d samples", topD, avg, len(ds.Samples))
	}
	if maxUlp > maxScoreUlpsF32 {
		t.Fatalf("f32 delta scores drift up to %d f32-ulps from float64, bound is %d", maxUlp, maxScoreUlpsF32)
	}
}

func TestF32PageParity(t *testing.T) {
	ds, _, page, _ := quantParityData(t)
	fm, err := ConvertPageF32(page)
	if err != nil {
		t.Fatal(err)
	}
	ctx := tensor.NewCtx()
	agree, total := 0, 0
	var dst []uint64
	for _, s := range ds.Samples {
		want := page.TopPagesAppendCtx(nil, s, 1, nil)
		dst = fm.TopPagesAppendCtx(ctx, s, 1, dst[:0])
		ctx.Reset()
		if len(want) == 0 && len(dst) == 0 {
			continue
		}
		total++
		if len(want) > 0 && len(dst) > 0 && want[0] == dst[0] {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no samples produced a page prediction")
	}
	if frac := float64(agree) / float64(total); frac < 0.99 {
		t.Fatalf("f32 top-1 page agreement %.4f < 0.99 (%d/%d)", frac, agree, total)
	}
}

func TestF32BinaryPageParity(t *testing.T) {
	ds, _, _, bin := quantParityData(t)
	fm, err := ConvertPageF32(bin)
	if err != nil {
		t.Fatal(err)
	}
	ctx := tensor.NewCtx()
	agree, total := 0, 0
	var dst []uint64
	for _, s := range ds.Samples {
		want := bin.TopPagesAppendCtx(nil, s, 1, nil)
		dst = fm.TopPagesAppendCtx(ctx, s, 1, dst[:0])
		ctx.Reset()
		if len(want) == 0 && len(dst) == 0 {
			continue
		}
		total++
		if len(want) > 0 && len(dst) > 0 && want[0] == dst[0] {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no samples produced a page prediction")
	}
	// Same rationale as the int8 bound: the binary head thresholds each bit
	// at 0.5, so backbone rounding noise on a near-threshold bit flips the
	// whole id rather than nudging a ranking.
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Fatalf("f32 binary top-1 page agreement %.4f < 0.95 (%d/%d)", frac, agree, total)
	}
}

func TestConvertF32PhaseSpecific(t *testing.T) {
	ds := synthDataset(t, 1200, 41)
	ps := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, ds.NumPhases(), 13)
	fm, err := ConvertDeltaF32(ps)
	if err != nil {
		t.Fatal(err)
	}
	fps, ok := fm.(*PhaseSpecificDelta)
	if !ok {
		t.Fatalf("converted phase-specific is %T", fm)
	}
	for p, sub := range fps.Models {
		if _, ok := sub.(*F32AMMADelta); !ok {
			t.Fatalf("phase %d sub-model is %T, want *F32AMMADelta", p, sub)
		}
	}
	ctx := tensor.NewCtx()
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	got := fps.DeltaScoresCtx(ctx, ds.Samples[0])
	if len(got) != ds.Cfg.DeltaClasses() {
		t.Fatalf("scores width %d", len(got))
	}
}

func TestConvertF32UnsupportedModelErrors(t *testing.T) {
	ds := synthDataset(t, 800, 43)
	if _, err := ConvertDeltaF32(NewAttnDelta(ds.Cfg, 3)); err == nil {
		t.Fatal("expected explicit error for unsupported delta model")
	}
	if _, err := ConvertPageF32(NewLSTMPage(ds.Cfg, ds.Pages, ds.PCs, 3)); err == nil {
		t.Fatal("expected explicit error for unsupported page model")
	}
}

// TestF32NilCtxIsInferenceOnly: a nil ctx is the autograd forward, which
// exists at float64 only, so an f32 mirror's entry point on a nil ctx fails
// the inference-only invariant instead of scoring anything.
func TestF32NilCtxIsInferenceOnly(t *testing.T) {
	ds, delta, page, bin := quantParityData(t)
	fd, fp, err := ConvertSuiteF32(delta, page)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ConvertPageF32(bin)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Samples[0]
	for name, call := range map[string]func(){
		"delta":  func() { fd.DeltaScoresCtx(nil, s) },
		"page":   func() { fp.TopPagesAppendCtx(nil, s, 1, nil) },
		"binary": func() { fb.TopPagesAppendCtx(nil, s, 1, nil) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "inference-only") {
					t.Errorf("%s: f32 mirror on a nil ctx recovered %q, want the inference-only invariant", name, msg)
				}
			}()
			call()
		}()
	}
}

func TestConvertSuiteF32Pair(t *testing.T) {
	ds, delta, page, _ := quantParityData(t)
	_ = ds
	fd, fp, err := ConvertSuiteF32(delta, page)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fd.(*F32AMMADelta); !ok {
		t.Fatalf("suite delta is %T", fd)
	}
	if _, ok := fp.(*F32AMMAPage); !ok {
		t.Fatalf("suite page is %T", fp)
	}
}

// TestF32BatchMatchesSequential: the f32 batch path must be bit-identical to
// sequential f32 inference at every batch size — all f32 ops route through
// the batched panel kernels, so this is the same byte-identity contract the
// int8 tier pins.
func TestF32BatchMatchesSequential(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	deltaModels := map[string]DeltaModel{
		"f32-lstm-delta": NewF32LSTMDelta(NewLSTMDelta(cfg, 1)),
		"f32-amma-delta": NewF32AMMADelta(NewAMMADelta(cfg, pcs, 0, 3)),
		"f32-pi-delta":   NewF32AMMADelta(NewAMMADelta(cfg, pcs, 3, 4)),
	}
	pageModels := map[string]PageModel{
		"f32-amma-page": NewF32AMMAPage(NewAMMAPage(cfg, pages, pcs, 0, 8)),
		"f32-pi-page":   NewF32AMMAPage(NewAMMAPage(cfg, pages, pcs, 3, 9)),
	}

	seqCtx := tensor.NewCtx()
	for _, B := range []int{1, 8, 64} {
		ss := batchSamples(cfg, B)
		for name, m := range deltaModels {
			ctx := tensor.NewCtx()
			out := DeltaScoresBatchWith(ctx, m, ss)
			if out.Rows != B {
				t.Fatalf("%s B=%d: got %d rows", name, B, out.Rows)
			}
			for i, s := range ss {
				seq := m.DeltaScoresCtx(seqCtx, s)
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
				seq := m.TopPagesAppendCtx(seqCtx, s, 3, nil)
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

// TestF32ZeroAlloc: the sequential and batched f32 fast paths stay
// 0 allocs/op once the arena is warm.
func TestF32ZeroAlloc(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	_ = pages

	models := map[string]DeltaModel{
		"f32-lstm-delta": NewF32LSTMDelta(NewLSTMDelta(cfg, 1)),
		"f32-amma-delta": NewF32AMMADelta(NewAMMADelta(cfg, pcs, 3, 3)),
	}
	for name, m := range models {
		ss := batchSamples(cfg, 8)
		ctx := tensor.NewCtx()
		for i := 0; i < 3; i++ {
			DeltaScoresBatchWith(ctx, m, ss)
			ctx.Reset()
			m.DeltaScoresCtx(ctx, ss[0])
			ctx.Reset()
		}
		if avg := testing.AllocsPerRun(20, func() {
			m.DeltaScoresCtx(ctx, ss[0])
			ctx.Reset()
		}); avg != 0 {
			t.Fatalf("%s sequential: %v allocs/op, want 0", name, avg)
		}
		if avg := testing.AllocsPerRun(20, func() {
			DeltaScoresBatchWith(ctx, m, ss)
			ctx.Reset()
		}); avg != 0 {
			t.Fatalf("%s batch: %v allocs/op, want 0", name, avg)
		}
	}
}

// TestScreenScoresCatchesPoisonedF16Weight (ISSUE satellite): a weight that
// overflows binary16 becomes Inf on the f16→f32 widen; the f32 delta path
// must surface it to ScreenScores — and hence latch Health() through
// AppendDeltaTargets — rather than letting the sigmoid saturate the Inf into
// a healthy-looking probability.
func TestScreenScoresCatchesPoisonedF16Weight(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	pm := &PrefetcherModels{Cfg: cfg, Pages: pages, PCs: pcs}
	delta := NewAMMADelta(cfg, pcs, 0, 11)
	page := NewAMMAPage(cfg, pages, pcs, 0, 17)
	pm.Deltas = append(pm.Deltas, delta)
	pm.PageMs = append(pm.PageMs, page)

	// 1e6 is finite in f32 and f64 but overflows binary16's 65504 max, so
	// the f16 snapshot round-trip turns it into +Inf.
	out := delta.head.Layers[len(delta.head.Layers)-1]
	out.B.Data[0] = 1e6

	var buf bytes.Buffer
	if err := pm.SaveF16(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPrefetcherModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lb := loaded.Deltas[0].head.Layers[len(loaded.Deltas[0].head.Layers)-1].B.Data[0]
	if !math.IsInf(lb, 1) {
		t.Fatalf("poisoned bias survived the f16 round trip as %v, want +Inf", lb)
	}

	fm, err := ConvertDeltaF32(loaded.Deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx := tensor.NewCtx()
	s := batchSamples(cfg, 1)[0]
	scores := fm.DeltaScoresCtx(ctx, s)
	if err := ScreenScores(scores); err == nil {
		t.Fatal("ScreenScores passed scores from an Inf-poisoned f16 weight")
	}
	if _, err := AppendDeltaTargets(ctx, scores, s.Blocks[len(s.Blocks)-1], 4, nil); err == nil {
		t.Fatal("AppendDeltaTargets issued prefetches from an Inf-poisoned model")
	}
	ctx.Reset()

	// The batched path must screen identically.
	ss := batchSamples(cfg, 8)
	out2 := DeltaScoresBatchWith(ctx, fm, ss)
	if err := ScreenScores(out2.Data[:out2.Cols]); err == nil {
		t.Fatal("batched f32 path masked the poisoned weight")
	}
}

// --- benchmark pairs: float64 vs f32 compute, f64 vs f16 storage ---

func benchF32DeltaModel() DeltaModel {
	return NewF32LSTMDelta(NewLSTMDelta(SmallConfig(), 1))
}

// BenchmarkOperate is the sequential float64 fast-path baseline the F32
// variant pairs with (one Operate == one single-sample inference).
func BenchmarkOperate(b *testing.B)    { benchBatchDelta(b, benchDeltaModel(), 1, true) }
func BenchmarkOperateF32(b *testing.B) { benchBatchDelta(b, benchF32DeltaModel(), 1, true) }

// The batched f32 pairs ride the same harness as the float64/int8 batch
// benchmarks: BenchmarkOperateF32Batch64 pairs with BenchmarkOperateBatch64
// in mpgraph-bench's speedups section.
func BenchmarkOperateF32Batch8(b *testing.B)  { benchBatchDelta(b, benchF32DeltaModel(), 8, false) }
func BenchmarkOperateF32Batch64(b *testing.B) { benchBatchDelta(b, benchF32DeltaModel(), 64, false) }

// benchSuiteSave measures suite serialisation; the reported suite_bytes
// metric is what documents the ~2x on-disk saving of the f16 artifact.
func benchSuiteSave(b *testing.B, f16 bool) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	pm := &PrefetcherModels{Cfg: cfg, Pages: pages, PCs: pcs}
	for p := 0; p < 2; p++ {
		pm.Deltas = append(pm.Deltas, NewAMMADelta(cfg, pcs, 0, int64(11+p)))
		pm.PageMs = append(pm.PageMs, NewAMMAPage(cfg, pages, pcs, 0, int64(17+p)))
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		var err error
		if f16 {
			err = pm.SaveF16(&buf)
		} else {
			err = pm.Save(&buf)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "suite_bytes")
}

func BenchmarkSuiteSave(b *testing.B)    { benchSuiteSave(b, false) }
func BenchmarkSuiteSaveF16(b *testing.B) { benchSuiteSave(b, true) }

// TestSnapshotF16Size: the f16 suite artifact must come in at no more than
// 55% of the float64 artifact (ISSUE: ~2x smaller suite weights).
func TestSnapshotF16Size(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	pm := &PrefetcherModels{Cfg: cfg, Pages: pages, PCs: pcs}
	for p := 0; p < 2; p++ {
		pm.Deltas = append(pm.Deltas, NewAMMADelta(cfg, pcs, 0, int64(11+p)))
		pm.PageMs = append(pm.PageMs, NewAMMAPage(cfg, pages, pcs, 0, int64(17+p)))
	}
	var f64buf, f16buf bytes.Buffer
	if err := pm.Save(&f64buf); err != nil {
		t.Fatal(err)
	}
	if err := pm.SaveF16(&f16buf); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(f16buf.Len()) / float64(f64buf.Len()); ratio > 0.55 {
		t.Fatalf("f16 snapshot is %.1f%% of f64 (%d / %d bytes), want <= 55%%",
			100*ratio, f16buf.Len(), f64buf.Len())
	}
}

// TestSnapshotF16RoundTrip: LoadPrefetcherModels dispatches on the magic and
// reconstructs every parameter as the exact widening of its binary16
// encoding.
func TestSnapshotF16RoundTrip(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	pm := &PrefetcherModels{Cfg: cfg, Pages: pages, PCs: pcs}
	pm.Deltas = append(pm.Deltas, NewAMMADelta(cfg, pcs, 0, 11))
	pm.PageMs = append(pm.PageMs, NewAMMAPage(cfg, pages, pcs, 0, 17))

	var buf bytes.Buffer
	if err := pm.SaveF16(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPrefetcherModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != cfg {
		t.Fatalf("config round trip: got %+v", loaded.Cfg)
	}
	want := pm.Deltas[0].Params()
	got := loaded.Deltas[0].Params()
	if len(want) != len(got) {
		t.Fatalf("param count %d vs %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i].Data {
			exp := tensor.F16Float64(tensor.F16Bits(want[i].Data[j]))
			if got[i].Data[j] != exp {
				t.Fatalf("param %d[%d]: loaded %g, want f16 round-trip %g", i, j, got[i].Data[j], exp)
			}
		}
	}
}

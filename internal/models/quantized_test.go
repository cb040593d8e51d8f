package models

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

type parityModels struct {
	ds    *Dataset
	delta *AMMADelta
	page  *AMMAPage
	bin   *BinaryPage
	err   error
}

// parityFixture is the brief training pass the parity tests share: enough
// epochs for the synthetic phases to become separable, small enough to keep
// the suite fast. It is trained once per test process; every caller only
// reads the models (conversion and quantization never write their source —
// TestQuantizeSuiteIsACodec holds that).
var parityFixture = sync.OnceValue(func() (f parityModels) {
	cfg := SmallConfig()
	if f.ds, f.err = BuildDataset(cfg, synthStream(1600, 31), DatasetOptions{}); f.err != nil {
		return f
	}
	opt := TrainOptions{Epochs: 3, LR: 2e-3, Seed: 5, MaxSamplesPerEpoch: 700}
	f.delta = NewAMMADelta(cfg, f.ds.PCs, 0, 11)
	if f.err = TrainDelta(f.delta, f.ds, opt); f.err != nil {
		return f
	}
	f.page = NewAMMAPage(cfg, f.ds.Pages, f.ds.PCs, 0, 17)
	if f.err = TrainPage(f.page, f.ds, opt); f.err != nil {
		return f
	}
	f.bin = NewBinaryPage(cfg, f.ds.Pages, f.ds.PCs, 23)
	f.err = TrainPage(f.bin, f.ds, opt)
	return f
})

func quantParityData(t *testing.T) (*Dataset, *AMMADelta, *AMMAPage, *BinaryPage) {
	t.Helper()
	f := parityFixture()
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.ds, f.delta, f.page, f.bin
}

// overlapAtK returns |topK(a) ∩ topK(b)| / k.
func overlapAtK(a, b []float64, k int) float64 {
	ta := TopKClasses(a, k)
	tb := TopKClasses(b, k)
	inB := map[int]bool{}
	for _, c := range tb {
		inB[c] = true
	}
	hit := 0
	for _, c := range ta {
		if inB[c] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

func TestQuantizedDeltaParity(t *testing.T) {
	ds, delta, _, _ := quantParityData(t)
	qm, err := QuantizeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	qc := qm.(DeltaScorerCtx)
	ctx := tensor.NewCtx()
	const topD = 8
	var overlapSum float64
	for _, s := range ds.Samples {
		want := delta.DeltaScores(s)
		got := qc.DeltaScoresCtx(ctx, s)
		overlapSum += overlapAtK(got, want, topD)
		ctx.Reset()
	}
	if avg := overlapSum / float64(len(ds.Samples)); avg < 0.95 {
		t.Fatalf("delta top-%d overlap %.4f < 0.95 over %d samples", topD, avg, len(ds.Samples))
	}
}

func TestQuantizedPageParity(t *testing.T) {
	ds, _, page, _ := quantParityData(t)
	qm, err := QuantizePage(page)
	if err != nil {
		t.Fatal(err)
	}
	qc := qm.(PageTopperCtx)
	ctx := tensor.NewCtx()
	agree, total := 0, 0
	var dst []uint64
	for _, s := range ds.Samples {
		want := page.TopPages(s, 1)
		dst = qc.TopPagesAppendCtx(ctx, s, 1, dst[:0])
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
		t.Fatalf("top-1 page agreement %.4f < 0.99 (%d/%d)", frac, agree, total)
	}
}

func TestQuantizedBinaryPageParity(t *testing.T) {
	ds, _, _, bin := quantParityData(t)
	qm, err := QuantizePage(bin)
	if err != nil {
		t.Fatal(err)
	}
	qc := qm.(PageTopperCtx)
	ctx := tensor.NewCtx()
	agree, total := 0, 0
	var dst []uint64
	for _, s := range ds.Samples {
		want := bin.TopPages(s, 1)
		dst = qc.TopPagesAppendCtx(ctx, s, 1, dst[:0])
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
	// The binary head decodes by thresholding each bit at 0.5, so backbone
	// quantization noise on a near-threshold bit flips the whole id instead
	// of nudging a ranking — the 99% bound of the softmax head is not
	// reachable here. 95% matches what the bit-flip candidate search
	// recovers (DESIGN.md §10).
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Fatalf("binary top-1 page agreement %.4f < 0.95 (%d/%d)", frac, agree, total)
	}
}

func TestBinaryPageFastPathMatchesSlow(t *testing.T) {
	// The float BinaryPage ctx fast path must reproduce TopPages exactly —
	// same candidate enumeration, same tie ordering.
	ds, _, _, bin := quantParityData(t)
	ctx := tensor.NewCtx()
	var dst []uint64
	for _, s := range ds.Samples[:200] {
		want := bin.TopPages(s, 3)
		dst = bin.TopPagesAppendCtx(ctx, s, 3, dst[:0])
		ctx.Reset()
		if len(want) != len(dst) {
			t.Fatalf("fast path returned %d pages, slow %d", len(dst), len(want))
		}
		for i := range want {
			if want[i] != dst[i] {
				t.Fatalf("fast path page[%d]=%d, slow %d", i, dst[i], want[i])
			}
		}
	}
}

func TestQuantizePhaseSpecific(t *testing.T) {
	ds := synthDataset(t, 1200, 41)
	opt := TrainOptions{Epochs: 2, LR: 2e-3, Seed: 5, MaxSamplesPerEpoch: 500}
	ps := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, ds.NumPhases(), 13)
	if err := TrainDelta(ps, ds, opt); err != nil {
		t.Fatal(err)
	}
	qm, err := QuantizeDelta(ps)
	if err != nil {
		t.Fatal(err)
	}
	qps, ok := qm.(*PhaseSpecificDelta)
	if !ok {
		t.Fatalf("quantized phase-specific is %T", qm)
	}
	for p, sub := range qps.Models {
		if _, ok := sub.(*F32AMMADelta); !ok {
			t.Fatalf("phase %d sub-model is %T, want *F32AMMADelta", p, sub)
		}
	}
	ctx := tensor.NewCtx()
	s := ds.Samples[0]
	got := qps.DeltaScoresCtx(ctx, s)
	if len(got) != ds.Cfg.DeltaClasses() {
		t.Fatalf("scores width %d", len(got))
	}
}

func TestQuantizeUnsupportedModelErrors(t *testing.T) {
	ds := synthDataset(t, 800, 43)
	lstm := NewLSTMDelta(ds.Cfg, 3)
	if _, err := QuantizeDelta(lstm); err == nil {
		t.Fatal("expected explicit error for unsupported delta model")
	}
	lstmp := NewLSTMPage(ds.Cfg, ds.Pages, ds.PCs, 3)
	if _, err := QuantizePage(lstmp); err == nil {
		t.Fatal("expected explicit error for unsupported page model")
	}
}

// TestQuantizedNilCtxFallsBackToFloat: without a ctx the mirror scores on
// its float64 model, which is the rounded copy — not the trained source.
func TestQuantizedNilCtxFallsBackToFloat(t *testing.T) {
	ds, delta, _, _ := quantParityData(t)
	qm, err := QuantizeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	rounded := NewAMMADelta(ds.Cfg, ds.PCs, 0, 0)
	if err := nn.CopyParams(rounded, delta); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.QuantizePerChannel(rounded, 8); err != nil {
		t.Fatal(err)
	}
	s := ds.Samples[0]
	want := rounded.DeltaScores(s)
	got := qm.(*F32AMMADelta).DeltaScoresCtx(nil, s)
	source := delta.DeltaScores(s)
	differs := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nil-ctx quantized path diverges from the rounded float64 copy at %d", i)
		}
		differs = differs || got[i] != source[i]
	}
	if !differs {
		t.Fatal("nil-ctx quantized path scored the unrounded source")
	}
}

func TestQuantizeSuitePair(t *testing.T) {
	ds, delta, page, _ := quantParityData(t)
	qd, qp, err := QuantizeSuite(delta, page, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := qd.(*F32AMMADelta); !ok {
		t.Fatalf("suite delta is %T", qd)
	}
	if _, ok := qp.(*F32AMMAPage); !ok {
		t.Fatalf("suite page is %T", qp)
	}
}

// paramBits snapshots every parameter of m as raw float64 bits.
func paramBits(m nn.Module) []uint64 {
	var out []uint64
	for _, p := range m.Params() {
		for _, v := range p.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestQuantizeSuiteIsACodec: for random models, QuantizeSuite leaves its
// source byte-identical (a sweep shares one suite across simulations), every
// matrix weight of the result sits on its column's 8-bit grid, and rounding
// the result again moves no bit.
func TestQuantizeSuiteIsACodec(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		phases := int(seed % 3)
		delta := &PhaseSpecificDelta{Models: []DeltaModel{
			NewAMMADelta(cfg, pcs, phases, seed), NewAMMADelta(cfg, pcs, 0, seed+100)}}
		page := &PhaseSpecificPage{Models: []PageModel{
			NewAMMAPage(cfg, pages, pcs, phases, seed+200), NewBinaryPage(cfg, pages, pcs, seed+300)}}
		// Trained weights are not unit-scale: stretch each tensor so the
		// per-column scales span orders of magnitude.
		for _, m := range []nn.Module{delta, page} {
			for _, p := range m.Params() {
				stretch := math.Exp(4 * rng.NormFloat64())
				for i := range p.Data {
					p.Data[i] = p.Data[i]*stretch + 1e-3*rng.NormFloat64()
				}
			}
		}
		deltaBefore, pageBefore := paramBits(delta), paramBits(page)
		qd, qp, err := QuantizeSuite(delta, page, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(deltaBefore, paramBits(delta)) || !slices.Equal(pageBefore, paramBits(page)) {
			t.Fatalf("seed %d: QuantizeSuite wrote its source's parameters", seed)
		}
		for _, q := range []nn.Module{qd, qp} {
			for pi, p := range q.Params() {
				if p.Rows == 1 || p.Cols == 1 {
					continue
				}
				for j := 0; j < p.Cols; j++ {
					var maxAbs float64
					for i := 0; i < p.Rows; i++ {
						maxAbs = math.Max(maxAbs, math.Abs(p.Data[i*p.Cols+j]))
					}
					if maxAbs == 0 {
						continue
					}
					scale := maxAbs / 127
					for i := 0; i < p.Rows; i++ {
						level := p.Data[i*p.Cols+j] / scale
						if math.Abs(level-math.Round(level)) > 1e-9 || math.Abs(level) > 127+1e-9 {
							t.Fatalf("seed %d param %d [%d,%d]: %g is level %.12f of scale %g, not an int8",
								seed, pi, i, j, p.Data[i*p.Cols+j], level, scale)
						}
					}
				}
			}
			once := paramBits(q)
			if _, err := nn.QuantizePerChannel(q, 8); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(once, paramBits(q)) {
				t.Fatalf("seed %d: rounding an already-quantised model moved a weight", seed)
			}
		}
	}
}

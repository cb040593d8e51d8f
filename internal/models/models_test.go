package models

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// synthStream produces a two-phase LLC-like access stream with learnable
// structure: each phase has its own PC pool, within-page stride pattern, and
// page-visit cycle, mimicking the scatter/gather signatures the real traces
// exhibit.
func synthStream(n int, seed int64) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	type phaseSpec struct {
		pcs     []uint64
		strides []int64
		pages   []uint64
	}
	specs := []phaseSpec{
		{
			pcs:     []uint64{0x400000, 0x400040, 0x400080},
			strides: []int64{1, 2},
			pages:   []uint64{1000, 1004, 1008, 1012, 1016, 1020},
		},
		{
			pcs:     []uint64{0x500000, 0x500040, 0x500080},
			strides: []int64{3, 1},
			pages:   []uint64{2000, 2001, 2007, 2013, 2019, 2025},
		},
	}
	out := make([]trace.Access, 0, n)
	phaseLen := n / 4
	pagePos := 0
	for i := 0; i < n; {
		phase := (i / phaseLen) % 2
		sp := specs[phase]
		page := sp.pages[pagePos%len(sp.pages)]
		pagePos++
		block := trace.BlockOfPageOffset(page, uint64(rng.Intn(8)))
		// Dwell on the page: a few strided accesses, then jump.
		for s := 0; s < len(sp.strides)+1 && i < n; s++ {
			var pc uint64
			if s < len(sp.strides) {
				pc = sp.pcs[s]
			} else {
				pc = sp.pcs[len(sp.pcs)-1]
			}
			out = append(out, trace.Access{
				Addr:  trace.BlockAddr(block),
				PC:    pc,
				Phase: uint8(phase),
				Gap:   3,
			})
			if s < len(sp.strides) {
				block += uint64(sp.strides[s])
			}
			i++
		}
	}
	return out
}

func synthDataset(t *testing.T, n int, seed int64) *Dataset {
	t.Helper()
	cfg := SmallConfig()
	ds, err := BuildDataset(cfg, synthStream(n, seed), DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestVocab(t *testing.T) {
	vals := []uint64{5, 5, 5, 9, 9, 7, 1}
	v := BuildVocab(vals, 3) // OOV + 2 slots
	if v.Size() != 3 {
		t.Fatalf("size %d, want 3", v.Size())
	}
	if v.Token(5) != 1 {
		t.Fatalf("most frequent must be token 1, got %d", v.Token(5))
	}
	if v.Token(9) != 2 {
		t.Fatalf("second token, got %d", v.Token(9))
	}
	if v.Token(7) != 0 || v.Token(1) != 0 || v.Token(42) != 0 {
		t.Fatal("capped-out values must be OOV")
	}
	if got, ok := v.Value(1); !ok || got != 5 {
		t.Fatal("Value(1)")
	}
	if _, ok := v.Value(0); ok {
		t.Fatal("OOV has no value")
	}
	if _, ok := v.Value(99); ok {
		t.Fatal("unknown token has no value")
	}
	if v.Capacity() != 3 {
		t.Fatal("capacity")
	}
}

func TestQuickVocabRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		v := BuildVocab(vals, 64)
		for _, x := range vals {
			tok := v.Token(x)
			if tok == 0 {
				continue // capped out
			}
			got, ok := v.Value(tok)
			if !ok || got != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentBlock(t *testing.T) {
	cfg := SmallConfig()
	feats := SegmentBlock(cfg, 0xDEADBEEF)
	if len(feats) != cfg.NumSegments {
		t.Fatal("segment count")
	}
	for _, f := range feats {
		if f < 0 || f > 1 {
			t.Fatalf("feature %g out of [0,1]", f)
		}
	}
	// 0xF in the low segment → 1.0.
	if got := SegmentBlock(cfg, 0xF)[0]; got != 1 {
		t.Fatalf("low segment of 0xF = %g", got)
	}
	at := AddrFeatureTensor(cfg, []uint64{1, 2, 3})
	if at.Rows != 3 || at.Cols != cfg.NumSegments {
		t.Fatal("AddrFeatureTensor shape")
	}
}

func TestQuickDeltaClassRoundTrip(t *testing.T) {
	cfg := PaperConfig()
	f := func(raw int16) bool {
		d := int64(raw) % int64(cfg.DeltaRange+1)
		cls, ok := cfg.DeltaToClass(d)
		if d == 0 {
			return !ok
		}
		if !ok {
			return false
		}
		return cfg.ClassToDelta(cls) == d && cls >= 0 && cls < cfg.DeltaClasses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.DeltaToClass(int64(cfg.DeltaRange) + 1); ok {
		t.Fatal("out of range delta must be rejected")
	}
}

func TestDeltaBitmapRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	bits := DeltaBitmap(cfg, []int64{1, -3, 62, 0, 9999})
	got := BitmapDeltas(cfg, bits, 0.5)
	want := map[int64]bool{1: true, -3: true, 62: true}
	if len(got) != 3 {
		t.Fatalf("decoded %v", got)
	}
	for _, d := range got {
		if !want[d] {
			t.Fatalf("unexpected delta %d", d)
		}
	}
}

func TestQuickBinaryCodeRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		id := int(raw) % 1024
		code, err := BinaryCode(id, 10)
		if err != nil {
			return false
		}
		return DecodeBinary(code) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := BinaryCode(1024, 10); err == nil {
		t.Fatal("overflow must fail")
	}
}

func TestTopKClasses(t *testing.T) {
	got := TopKClasses([]float64{0.1, 0.9, 0.5, 0.9}, 3)
	if got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("TopK = %v", got)
	}
	if len(TopKClasses([]float64{1}, 5)) != 1 {
		t.Fatal("k beyond length")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := PaperConfig()
	bad.FusionDim = 130 // not divisible by 4 heads
	if err := bad.Validate(); err == nil {
		t.Fatal("bad heads must fail")
	}
	bad2 := PaperConfig()
	bad2.HistoryT = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero history must fail")
	}
	bad3 := PaperConfig()
	bad3.NumSegments = 20
	bad3.SegmentBits = 10
	if err := bad3.Validate(); err == nil {
		t.Fatal("segmentation over 64 bits must fail")
	}
}

func TestBuildDataset(t *testing.T) {
	ds := synthDataset(t, 4000, 1)
	if len(ds.Samples) == 0 {
		t.Fatal("no samples")
	}
	if ds.NumPhases() != 2 {
		t.Fatalf("phases %d, want 2", ds.NumPhases())
	}
	s := ds.Samples[0]
	if len(s.Blocks) != ds.Cfg.HistoryT || len(s.PCs) != ds.Cfg.HistoryT {
		t.Fatal("window lengths")
	}
	if len(s.DeltaBits) != ds.Cfg.DeltaClasses() {
		t.Fatal("delta label width")
	}
	if len(s.FuturePages) == 0 || len(s.FuturePages) > 10 {
		t.Fatal("future pages")
	}
	// Phase filter partitions the samples.
	p0, p1 := ds.FilterPhase(0), ds.FilterPhase(1)
	if len(p0.Samples)+len(p1.Samples) != len(ds.Samples) {
		t.Fatal("phase filter must partition")
	}
	if len(p0.Samples) == 0 || len(p1.Samples) == 0 {
		t.Fatal("both phases must appear")
	}
}

func TestBuildDatasetOptions(t *testing.T) {
	cfg := SmallConfig()
	stream := synthStream(4000, 2)
	all, err := BuildDataset(cfg, stream, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	strided, err := BuildDataset(cfg, stream, DatasetOptions{Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(strided.Samples) >= len(all.Samples)/3 {
		t.Fatal("stride must subsample")
	}
	capped, err := BuildDataset(cfg, stream, DatasetOptions{MaxSamples: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Samples) != 7 {
		t.Fatal("max samples")
	}
	shared, err := BuildDataset(cfg, stream, DatasetOptions{Pages: all.Pages, PCs: all.PCs})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Pages != all.Pages {
		t.Fatal("vocab must be shared")
	}
	if _, err := BuildDataset(cfg, stream[:10], DatasetOptions{}); err == nil {
		t.Fatal("short stream must fail")
	}
	if _, err := BuildDataset(Config{}, stream, DatasetOptions{}); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestDatasetLabelsMatchFuture(t *testing.T) {
	ds := synthDataset(t, 3000, 3)
	cfg := ds.Cfg
	// Spot check: every set bit must correspond to an in-range future
	// delta by construction. Rebuild from the raw stream.
	stream := synthStream(3000, 3)
	blocks := make([]uint64, len(stream))
	for i, a := range stream {
		blocks[i] = trace.Block(a.Addr)
	}
	// The first sample is at t = HistoryT.
	s := ds.Samples[0]
	tpos := cfg.HistoryT
	cur := s.CurrentBlock()
	if cur != blocks[tpos-1] {
		t.Fatalf("current block mismatch: %d vs %d", cur, blocks[tpos-1])
	}
	wantBits := make(map[int]bool)
	for f := tpos; f < tpos+cfg.LookForwardF; f++ {
		if cls, ok := cfg.DeltaToClass(int64(blocks[f]) - int64(cur)); ok {
			wantBits[cls] = true
		}
	}
	for cls, v := range s.DeltaBits {
		if (v >= 0.5) != wantBits[cls] {
			t.Fatalf("bit %d mismatch", cls)
		}
	}
}

func trainedDeltaModels(t *testing.T, ds *Dataset) (*AMMADelta, *PhaseSpecificDelta) {
	t.Helper()
	opt := TrainOptions{Epochs: 3, LR: 2e-3, Seed: 5, MaxSamplesPerEpoch: 700}
	amma := NewAMMADelta(ds.Cfg, ds.PCs, 0, 11)
	if err := TrainDelta(amma, ds, opt); err != nil {
		t.Fatal(err)
	}
	ps := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, ds.NumPhases(), 13)
	if err := TrainDelta(ps, ds, opt); err != nil {
		t.Fatal(err)
	}
	return amma, ps
}

func TestAMMADeltaLearns(t *testing.T) {
	ds := synthDataset(t, 6000, 4)
	amma, ps := trainedDeltaModels(t, ds)
	untrained := NewAMMADelta(ds.Cfg, ds.PCs, 0, 99)
	f1Untrained := EvalDeltaF1(untrained, ds.Samples, 300)
	f1 := EvalDeltaF1(amma, ds.Samples, 300)
	f1PS := EvalDeltaF1(ps, ds.Samples, 300)
	// Label noise from random-offset page revisits caps the achievable F1
	// around 0.5 on this stream; untrained models sit near 0.06.
	if f1 < 0.4 {
		t.Fatalf("AMMA delta F1 = %.3f, want learnable pattern > 0.4 (untrained %.3f)", f1, f1Untrained)
	}
	if f1 <= f1Untrained+0.2 {
		t.Fatalf("training must help: %.3f vs untrained %.3f", f1, f1Untrained)
	}
	// Each phase model sees only half the per-epoch sample budget, so PS
	// is undertrained relative to AMMA here; it just has to clearly learn.
	if f1PS < 0.3 {
		t.Fatalf("AMMA-PS delta F1 = %.3f", f1PS)
	}
}

func TestAMMAPageLearns(t *testing.T) {
	ds := synthDataset(t, 6000, 6)
	opt := TrainOptions{Epochs: 2, LR: 2e-3, Seed: 7, MaxSamplesPerEpoch: 500}
	page := NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 17)
	if err := TrainPage(page, ds, opt); err != nil {
		t.Fatal(err)
	}
	acc := EvalPageAccAtK(page, ds.Samples, 10, 300)
	if acc < 0.5 {
		t.Fatalf("AMMA page acc@10 = %.3f, want > 0.5 on cyclic pages", acc)
	}
	// Top pages must come from the known vocabulary.
	tops := page.TopPages(ds.Samples[0], 3)
	if len(tops) == 0 {
		t.Fatal("no top pages")
	}
	for _, p := range tops {
		if ds.Pages.Token(p) == 0 {
			t.Fatalf("top page %d not in vocab", p)
		}
	}
}

func TestPhaseInformedVariant(t *testing.T) {
	ds := synthDataset(t, 4000, 8)
	pi := NewAMMADelta(ds.Cfg, ds.PCs, ds.NumPhases(), 19)
	if err := TrainDelta(pi, ds, TrainOptions{Epochs: 1, Seed: 3, MaxSamplesPerEpoch: 300}); err != nil {
		t.Fatal(err)
	}
	if f1 := EvalDeltaF1(pi, ds.Samples, 200); f1 <= 0.2 {
		t.Fatalf("AMMA-PI F1 = %.3f", f1)
	}
	// The phase embedding must be among the params.
	piParams := len(pi.Params())
	plain := NewAMMADelta(ds.Cfg, ds.PCs, 0, 19)
	if piParams <= len(plain.Params()) {
		t.Fatal("PI variant must add the phase embedding")
	}
}

func TestBaselinesTrainSmoke(t *testing.T) {
	ds := synthDataset(t, 3000, 9)
	opt := TrainOptions{Epochs: 1, Seed: 3, MaxSamplesPerEpoch: 150}
	ld := NewLSTMDelta(ds.Cfg, 23)
	if err := TrainDelta(ld, ds, opt); err != nil {
		t.Fatal(err)
	}
	if f1 := EvalDeltaF1(ld, ds.Samples, 100); f1 < 0 || f1 > 1 {
		t.Fatalf("lstm F1 %v", f1)
	}
	ad := NewAttnDelta(ds.Cfg, 29)
	if err := TrainDelta(ad, ds, opt); err != nil {
		t.Fatal(err)
	}
	lp := NewLSTMPage(ds.Cfg, ds.Pages, ds.PCs, 31)
	if err := TrainPage(lp, ds, opt); err != nil {
		t.Fatal(err)
	}
	ap := NewAttnPage(ds.Cfg, ds.Pages, ds.PCs, 37)
	if err := TrainPage(ap, ds, opt); err != nil {
		t.Fatal(err)
	}
	psp := NewPhaseSpecificPage(ds.Cfg, ds.Pages, ds.PCs, 2, 41)
	if err := TrainPage(psp, ds, opt); err != nil {
		t.Fatal(err)
	}
	if acc := EvalPageAccAtK(psp, ds.Samples, 10, 100); acc < 0 || acc > 1 {
		t.Fatal("ps page acc range")
	}
	if probs := psp.PageProbs(ds.Samples[0]); len(probs) != ds.Cfg.PageVocab {
		t.Fatal("ps page probs")
	}
}

func TestBinaryPage(t *testing.T) {
	ds := synthDataset(t, 4000, 10)
	bp := NewBinaryPage(ds.Cfg, ds.Pages, ds.PCs, 43)
	if bp.Bits() != 10 { // PageVocab 1024
		t.Fatalf("bits = %d, want 10", bp.Bits())
	}
	if err := TrainPage(bp, ds, TrainOptions{Epochs: 2, Seed: 3, MaxSamplesPerEpoch: 400}); err != nil {
		t.Fatal(err)
	}
	tops := bp.TopPages(ds.Samples[0], 2)
	for _, p := range tops {
		if ds.Pages.Token(p) == 0 {
			t.Fatalf("binary top page %d not in vocab", p)
		}
	}
	// Binary head must be far smaller than the softmax head.
	full := NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 43)
	if nn.CountParams(bp) >= nn.CountParams(full) {
		t.Fatal("binary encoding must shrink the model")
	}
}

func TestDistillation(t *testing.T) {
	ds := synthDataset(t, 5000, 12)
	opt := TrainOptions{Epochs: 2, LR: 2e-3, Seed: 5, MaxSamplesPerEpoch: 400}
	teacher := NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 47)
	if err := TrainPage(teacher, ds, opt); err != nil {
		t.Fatal(err)
	}
	// Student: half-width config.
	small := ds.Cfg
	small.AttnDim = 8
	small.FusionDim = 16
	small.Heads = 2
	student := NewAMMAPage(small, ds.Pages, ds.PCs, 0, 53)
	dsSmall := &Dataset{Cfg: small, Samples: ds.Samples, Pages: ds.Pages, PCs: ds.PCs}
	if err := DistillPage(student, teacher, dsSmall, DistillOptions{TrainOptions: opt}); err != nil {
		t.Fatal(err)
	}
	accT := EvalPageAccAtK(teacher, ds.Samples, 10, 200)
	accS := EvalPageAccAtK(student, dsSmall.Samples, 10, 200)
	if accS < accT*0.5 {
		t.Fatalf("distilled student too weak: %.3f vs teacher %.3f", accS, accT)
	}
	if nn.CountParams(student) >= nn.CountParams(teacher) {
		t.Fatal("student must be smaller")
	}
	// Binary student distillation.
	bstudent := NewBinaryPage(small, ds.Pages, ds.PCs, 59)
	if err := DistillPage(bstudent, teacher, dsSmall, DistillOptions{TrainOptions: TrainOptions{Epochs: 1, Seed: 3, MaxSamplesPerEpoch: 200}}); err != nil {
		t.Fatal(err)
	}
}

func TestDistillDelta(t *testing.T) {
	ds := synthDataset(t, 4000, 14)
	opt := TrainOptions{Epochs: 1, LR: 2e-3, Seed: 5, MaxSamplesPerEpoch: 300}
	teacher := NewAMMADelta(ds.Cfg, ds.PCs, 0, 61)
	if err := TrainDelta(teacher, ds, opt); err != nil {
		t.Fatal(err)
	}
	small := ds.Cfg
	small.AttnDim = 8
	small.FusionDim = 16
	small.Heads = 2
	student := NewAMMADelta(small, ds.PCs, 0, 67)
	dsSmall := &Dataset{Cfg: small, Samples: ds.Samples, Pages: ds.Pages, PCs: ds.PCs}
	if err := DistillDelta(student, teacher, dsSmall, DistillOptions{TrainOptions: opt}); err != nil {
		t.Fatal(err)
	}
	if f1 := EvalDeltaF1(student, dsSmall.Samples, 150); f1 <= 0 {
		t.Fatalf("distilled delta student F1 %v", f1)
	}
}

func TestComplexityAccounting(t *testing.T) {
	cfg := PaperConfig()
	pages := BuildVocab([]uint64{1, 2, 3}, cfg.PageVocab)
	pcs := BuildVocab([]uint64{1, 2}, cfg.PCVocab)
	delta := NewAMMADelta(cfg, pcs, 0, 1)
	cd := AMMAComplexity(cfg, delta, cfg.DeltaClasses())
	if cd.Params != nn.CountParams(delta) || cd.Params == 0 {
		t.Fatal("params")
	}
	if cd.OPs <= 0 || cd.CriticalPath <= 0 {
		t.Fatal("ops/critical path")
	}
	if cd.CriticalPathClass != "O(l)" {
		t.Fatal("class")
	}
	lstm := NewLSTMDelta(cfg, 1)
	cl := LSTMComplexity(cfg, lstm, cfg.NumSegments+1, cfg.DeltaClasses())
	if cl.CriticalPathClass != "O(nl)" {
		t.Fatal("lstm class")
	}
	// The paper's Table 8 claim: the LSTM critical path grows with the
	// sequence length n while the attention path does not.
	long := cfg
	long.HistoryT = 64
	clLong := LSTMComplexity(long, lstm, cfg.NumSegments+1, cfg.DeltaClasses())
	cdLong := AMMAComplexity(long, delta, cfg.DeltaClasses())
	if clLong.CriticalPath <= cl.CriticalPath {
		t.Fatal("LSTM critical path must grow with n")
	}
	if cdLong.CriticalPath != cd.CriticalPath {
		t.Fatal("attention critical path must not depend on n")
	}
	if clLong.CriticalPath <= cdLong.CriticalPath {
		t.Fatalf("at n=64 LSTM path %d must exceed attention %d", clLong.CriticalPath, cdLong.CriticalPath)
	}
	// Compressed config shrinks both params and critical path.
	smallCfg := cfg
	smallCfg.AttnDim, smallCfg.FusionDim, smallCfg.Heads = 8, 8, 2
	smallDelta := NewAMMADelta(smallCfg, pcs, 0, 1)
	cs := AMMAComplexity(smallCfg, smallDelta, smallCfg.DeltaClasses())
	if cs.Params >= cd.Params || cs.CriticalPath >= cd.CriticalPath {
		t.Fatal("compression must shrink complexity")
	}
	_ = pages
}

// TestTrainBitIdenticalAcrossKernelPaths: training is the same function of its
// inputs on the vector training kernels and on the scalar loops they stand in
// for — every weight of every model family the same bits after 48 Adam steps
// (clipping fires on some). Trained weights reach reports, checkpoints and
// snapshots, so a fused multiply-add, a reciprocal or a reassociated sum in
// any training kernel fails here.
func TestTrainBitIdenticalAcrossKernelPaths(t *testing.T) {
	ds := synthDataset(t, 1500, 12)
	opt := TrainOptions{Epochs: 1, LR: 2e-3, Seed: 9, MaxSamplesPerEpoch: 48}
	train := func() map[string]nn.Module {
		ms := map[string]nn.Module{}
		for name, m := range map[string]DeltaModel{
			"amma-delta": NewAMMADelta(ds.Cfg, ds.PCs, 0, 3),
			"lstm-delta": NewLSTMDelta(ds.Cfg, 5),
		} {
			if err := TrainDelta(m, ds, opt); err != nil {
				t.Fatal(err)
			}
			ms[name] = m
		}
		for name, m := range map[string]PageModel{
			"amma-page": NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 7),
			"ps-page":   NewPhaseSpecificPage(ds.Cfg, ds.Pages, ds.PCs, ds.NumPhases(), 11),
		} {
			if err := TrainPage(m, ds, opt); err != nil {
				t.Fatal(err)
			}
			ms[name] = m
		}
		return ms
	}
	native := train()
	restore := tensor.ForcePortableKernels()
	portable := train()
	restore()
	for name, m := range native {
		requireSameBits(t, name+" (native vs portable)", m, portable[name])
	}
}

func TestTrainErrors(t *testing.T) {
	cfg := SmallConfig()
	pcs := BuildVocab([]uint64{1}, cfg.PCVocab)
	m := NewAMMADelta(cfg, pcs, 0, 1)
	empty := &Dataset{Cfg: cfg, PCs: pcs}
	if err := TrainDelta(m, empty, TrainOptions{}); err == nil {
		t.Fatal("empty dataset must fail")
	}
}

func TestPrefetcherModelsSaveLoad(t *testing.T) {
	ds := synthDataset(t, 3000, 20)
	pm, err := TrainPrefetcherModels(ds, 2, TrainOptions{Epochs: 1, Seed: 3, MaxSamplesPerEpoch: 80})
	if err != nil {
		t.Fatal(err)
	}
	if pm.NumPhases() != 2 || len(pm.DeltaModels()) != 2 || len(pm.PageModels()) != 2 {
		t.Fatal("phase count")
	}
	var buf bytes.Buffer
	if err := pm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPrefetcherModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != pm.Cfg {
		t.Fatalf("config mismatch: %+v vs %+v", got.Cfg, pm.Cfg)
	}
	if got.Pages.Size() != pm.Pages.Size() || got.PCs.Size() != pm.PCs.Size() {
		t.Fatal("vocab size mismatch")
	}
	// Predictions must be identical after the round trip.
	s := ds.Samples[0]
	want := pm.Deltas[0].DeltaScores(s)
	have := got.Deltas[0].DeltaScores(s)
	for i := range want {
		if math.Abs(want[i]-have[i]) > 1e-12 {
			t.Fatalf("delta score %d differs after load", i)
		}
	}
	wantP := pm.PageMs[1].TopPages(s, 3)
	haveP := got.PageMs[1].TopPages(s, 3)
	for i := range wantP {
		if wantP[i] != haveP[i] {
			t.Fatal("page prediction differs after load")
		}
	}
	// Vocab token mapping survives.
	for _, pg := range wantP {
		if got.Pages.Token(pg) != pm.Pages.Token(pg) {
			t.Fatal("vocab token mismatch")
		}
	}
}

func TestLoadPrefetcherModelsErrors(t *testing.T) {
	if _, err := LoadPrefetcherModels(bytes.NewReader(make([]byte, 200))); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := TrainPrefetcherModels(nil, 0, TrainOptions{}); err == nil {
		t.Fatal("zero phases must fail")
	}
}

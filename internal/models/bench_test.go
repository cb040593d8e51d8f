package models

import (
	"math/rand"
	"testing"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

func benchSample(cfg Config) *Sample {
	blocks := make([]uint64, cfg.HistoryT)
	pcs := make([]uint64, cfg.HistoryT)
	for i := range blocks {
		blocks[i] = uint64(1<<20 + i)
		pcs[i] = 0x400000 + uint64(i%3)*0x40
	}
	return &Sample{Blocks: blocks, PCs: pcs}
}

func BenchmarkAMMADeltaInference(b *testing.B) {
	cfg := SmallConfig()
	pcs := BuildVocab([]uint64{0x400000, 0x400040, 0x400080}, cfg.PCVocab)
	m := NewAMMADelta(cfg, pcs, 0, 1)
	s := benchSample(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DeltaScoresCtx(nil, s)
	}
}

func BenchmarkAMMADeltaInferencePaperScale(b *testing.B) {
	cfg := PaperConfig()
	pcs := BuildVocab([]uint64{0x400000, 0x400040, 0x400080}, cfg.PCVocab)
	m := NewAMMADelta(cfg, pcs, 0, 1)
	s := benchSample(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DeltaScoresCtx(nil, s)
	}
}

func BenchmarkLSTMDeltaInference(b *testing.B) {
	cfg := SmallConfig()
	m := NewLSTMDelta(cfg, 1)
	s := benchSample(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DeltaScoresCtx(nil, s)
	}
}

// benchTrainStep times the step trainLoop runs per sample — the same
// trainer, so the same tape — on the loss of one sample after another, after
// the one step that grows the tape and allocates the gradients and moments.
func benchTrainStep(b *testing.B, m nn.Module, ds *Dataset, lossFn func(*Sample) *tensor.Tensor) {
	tr := newTrainer(m, 1e-3)
	defer tr.release()
	step := func(i int) {
		if err := tr.step(lossFn(ds.Samples[i%len(ds.Samples)])); err != nil {
			b.Fatal(err)
		}
	}
	step(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i + 1)
	}
}

func benchTrainDataset(b *testing.B) *Dataset {
	ds, err := BuildDataset(SmallConfig(), synthStream(2000, 1), DatasetOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkAMMADeltaTrainStep(b *testing.B) {
	ds := benchTrainDataset(b)
	m := NewAMMADelta(ds.Cfg, ds.PCs, 0, 1)
	benchTrainStep(b, m, ds, m.DeltaLoss)
}

func BenchmarkAMMAPageTrainStep(b *testing.B) {
	ds := benchTrainDataset(b)
	m := NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 1)
	benchTrainStep(b, m, ds, m.PageLoss)
}

// BenchmarkLSTMPageTrainStep is the recurrent graph's step: nine steps of
// gate ops, the longest single training job of a suite.
func BenchmarkLSTMPageTrainStep(b *testing.B) {
	ds := benchTrainDataset(b)
	m := NewLSTMPage(ds.Cfg, ds.Pages, ds.PCs, 1)
	benchTrainStep(b, m, ds, m.PageLoss)
}

// BenchmarkTopK2of1024 is the page-model decode: the best token plus one
// spare out of a PageVocab-wide logit row.
func BenchmarkTopK2of1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 1024)
	for i := range scores {
		scores[i] = rng.NormFloat64()
	}
	ctx := tensor.NewCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TopKClassesCtx(ctx, scores, 2)
		ctx.Reset()
	}
}

package models

import (
	"math/rand"
	"testing"

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
		m.DeltaScores(s)
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
		m.DeltaScores(s)
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
		m.DeltaScores(s)
	}
}

func BenchmarkAMMADeltaTrainStep(b *testing.B) {
	cfg := SmallConfig()
	ds, err := BuildDataset(cfg, synthStream(2000, 1), DatasetOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m := NewAMMADelta(cfg, ds.PCs, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := m.DeltaLoss(ds.Samples[i%len(ds.Samples)])
		if err := loss.Backward(); err != nil {
			b.Fatal(err)
		}
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
	}
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

package models

import (
	"math"
	"math/rand"
	"testing"

	"mpgraph/internal/tensor"
)

// fastpathSample builds an inference-only sample inside the test vocabs.
func fastpathSample(cfg Config, phase int) *Sample {
	blocks := make([]uint64, cfg.HistoryT)
	pcs := make([]uint64, cfg.HistoryT)
	for i := range blocks {
		blocks[i] = uint64(1<<14+i)<<6 + uint64(i%7)
		pcs[i] = 0x400000 + 0x40*uint64(i%5)
	}
	return &Sample{Blocks: blocks, PCs: pcs, Phase: phase}
}

// The ctx scorers must reproduce the allocating slow path within float
// reassociation tolerance (fused kernels reorder summation), and the
// top-page decode must match exactly.
func TestCtxScorersMatchSlowPath(t *testing.T) {
	cfg := SmallConfig()
	var pcVals, pageVals []uint64
	for i := 0; i < 40; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	pcs := BuildVocab(pcVals, cfg.PCVocab)
	pages := BuildVocab(pageVals, cfg.PageVocab)
	s := fastpathSample(cfg, 1)
	ctx := tensor.NewCtx()

	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	deltaModels := map[string]DeltaModel{
		"lstm-delta": NewLSTMDelta(cfg, 1),
		"attn-delta": NewAttnDelta(cfg, 2),
		"amma-delta": NewAMMADelta(cfg, pcs, 0, 3),
		"pi-delta":   NewAMMADelta(cfg, pcs, 3, 4),
		"ps-delta":   NewPhaseSpecificDelta(cfg, pcs, 3, 5),
	}
	for name, m := range deltaModels {
		slow := m.DeltaScores(s)
		fast := DeltaScoresWith(ctx, m, s)
		if len(slow) != len(fast) {
			t.Fatalf("%s: score lengths %d vs %d", name, len(slow), len(fast))
		}
		for i := range slow {
			if math.Abs(slow[i]-fast[i]) > 1e-9 {
				t.Fatalf("%s: score[%d] = %g (slow) vs %g (fast)", name, i, slow[i], fast[i])
			}
		}
		ctx.Reset()
	}

	pageModels := map[string]PageModel{
		"lstm-page": NewLSTMPage(cfg, pages, pcs, 6),
		"attn-page": NewAttnPage(cfg, pages, pcs, 7),
		"amma-page": NewAMMAPage(cfg, pages, pcs, 0, 8),
		"pi-page":   NewAMMAPage(cfg, pages, pcs, 3, 9),
		"ps-page":   NewPhaseSpecificPage(cfg, pages, pcs, 3, 10),
	}
	for name, m := range pageModels {
		for _, k := range []int{1, 3} {
			slow := m.TopPages(s, k)
			fast := TopPagesWith(ctx, m, s, k, nil)
			if len(slow) != len(fast) {
				t.Fatalf("%s k=%d: lengths %d vs %d", name, k, len(slow), len(fast))
			}
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("%s k=%d: page[%d] = %d (slow) vs %d (fast)", name, k, i, slow[i], fast[i])
				}
			}
			ctx.Reset()
		}
	}
}

// TopKClassesCtx must reproduce TopKClasses' ordering exactly, ties
// included, on top of the arena's index scratch.
func TestTopKClassesCtxMatches(t *testing.T) {
	ctx := tensor.NewCtx()
	scores := []float64{0.3, 0.9, 0.1, 0.9, 0.5, 0.0, 0.5, 0.7}
	for k := 0; k <= len(scores)+1; k++ {
		slow := TopKClasses(scores, k)
		fast := TopKClassesCtx(ctx, scores, k)
		if len(slow) != len(fast) {
			t.Fatalf("k=%d: lengths %d vs %d", k, len(slow), len(fast))
		}
		for i := range slow {
			if slow[i] != fast[i] {
				t.Fatalf("k=%d: class[%d] = %d (slow) vs %d (fast)", k, i, slow[i], fast[i])
			}
		}
		ctx.Reset()
	}
}

// TestKernelOracleTopK: the single-pass top-k must pick the classes
// TopKClasses' full sort picks, in its order, on random score vectors with
// planted ties — at the hot paths' k, at k = n, and with ties straddling the
// cut.
func TestKernelOracleTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ctx := tensor.NewCtx()
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		if trial%50 == 0 {
			n = 1024
		}
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		// Plant ties: copy a few scores (the best one included) over others.
		best := 0
		for i, s := range scores {
			if s > scores[best] {
				best = i
			}
		}
		for i := 0; i < 1+n/4; i++ {
			src := rng.Intn(n)
			if i == 0 {
				src = best
			}
			scores[rng.Intn(n)] = scores[src]
		}
		for _, k := range []int{1, 2, 3, n} {
			want := TopKClasses(scores, k)
			got := TopKClassesCtx(ctx, scores, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d k=%d: %d classes, want %d", trial, n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d k=%d: class[%d] = %d, want %d (scores %v)", trial, n, k, i, got[i], want[i], scores)
				}
			}
			ctx.Reset()
		}
	}
}

// Dispatchers fall back to the slow path when the ctx is nil or the model
// lacks the capability interface.
func TestDispatcherFallbacks(t *testing.T) {
	cfg := SmallConfig()
	pcVals := []uint64{0x400000, 0x400040}
	pcs := BuildVocab(pcVals, cfg.PCVocab)
	s := fastpathSample(cfg, 0)
	m := NewAMMADelta(cfg, pcs, 0, 1)

	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	slow := m.DeltaScores(s)
	viaNil := DeltaScoresWith(nil, m, s)
	for i := range slow {
		if math.Abs(slow[i]-viaNil[i]) > 1e-12 {
			t.Fatalf("nil-ctx dispatch diverged at %d", i)
		}
	}
}

package models

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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

// The live-ctx scorers must reproduce the nil-ctx (autograd) forward within
// float reassociation tolerance (fused kernels reorder summation), and the
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
		slow := m.DeltaScoresCtx(nil, s)
		fast := m.DeltaScoresCtx(ctx, s)
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
			slow := m.TopPagesAppendCtx(nil, s, k, nil)
			fast := m.TopPagesAppendCtx(ctx, s, k, nil)
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

// TopKClasses is the top-k oracle: the indices of the k largest scores by a
// full sort, descending, equal scores in index order.
func TopKClasses(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		// Exact comparison is deliberate: equal scores fall through to the
		// index tie-break so the ranking is deterministic across runs.
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:min(k, len(idx))]
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

// referenceTopKScan is topKSelectInto's scan as the parent commit ran it:
// every score past the first k compared with the current worst entry, in
// index order.
func referenceTopKScan[T float32 | float64](top []int, scores []T) []int {
	k := len(top)
	if k == 0 {
		return top
	}
	for i := 0; i < k; i++ {
		topKInsert(top, scores, i, i)
	}
	worst := scores[top[k-1]]
	for i := k; i < len(scores); i++ {
		if scores[i] > worst {
			topKInsert(top, scores, k-1, i)
			worst = scores[top[k-1]]
		}
	}
	return top
}

// TestTopKScanMatchesReference: the vector-prefiltered scan
// (tensor.FirstAbove) picks what the element-by-element scan picked — strict
// >, the lower index on ties, no NaN past the first k — at both precisions,
// on both kernel families, with ties, ±0, ±Inf and NaN planted.
func TestTopKScanMatchesReference(t *testing.T) {
	topKScanOracle[float64](t)
	topKScanOracle[float32](t)
}

func topKScanOracle[T float32 | float64](t *testing.T) {
	specials := []T{T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1)), 0, T(math.Copysign(0, -1))}
	rng := rand.New(rand.NewSource(53))
	for _, forced := range []bool{false, true} {
		restore := func() {}
		if forced {
			restore = tensor.ForcePortableKernels()
		}
		for trial := 0; trial < 500; trial++ {
			n := 1 + rng.Intn(80)
			if trial%20 == 0 {
				n = 1024
			}
			scores := make([]T, n)
			for i := range scores {
				scores[i] = T(rng.NormFloat64())
				switch {
				case rng.Intn(10) == 0:
					scores[i] = specials[rng.Intn(len(specials))]
				case i > 0 && rng.Intn(5) == 0:
					scores[i] = scores[rng.Intn(i)]
				}
			}
			for _, k := range []int{1, 2, 3, 5, n} {
				k = min(k, n)
				got := topKSelectInto(make([]int, k), scores)
				want := referenceTopKScan(make([]int, k), scores)
				if !slices.Equal(got, want) {
					restore()
					t.Fatalf("portable=%v trial %d n=%d k=%d: %v, reference %v", forced, trial, n, k, got, want)
				}
			}
		}
		restore()
	}
}

// TestTopPagesF32RanksAsWidened: ranking f32 page logits where they stand
// (F32AMMAPage skips the float64 widening) appends the pages ranking their
// exact widening would — over random rows with ties, ±0, NaN and ±Inf
// planted, at the top-2 the controller asks for and past it.
func TestTopPagesF32RanksAsWidened(t *testing.T) {
	var vals []uint64
	for i := 0; i < 900; i++ {
		vals = append(vals, uint64(1<<14+i))
	}
	pages := BuildVocab(vals, 1024) // tokens past 900 are unknown: ranked, then skipped
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	rng := rand.New(rand.NewSource(51))
	ctx := tensor.NewCtx()
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		if trial%10 == 0 {
			n = 1024
		}
		row := make([]float32, n)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
			switch {
			case rng.Intn(8) == 0:
				row[i] = specials[rng.Intn(len(specials))]
			case rng.Intn(6) == 0:
				row[i] = row[rng.Intn(i+1)] // a tie with an earlier logit
			}
		}
		wide := make([]float64, n)
		for i, v := range row {
			wide[i] = float64(v)
		}
		for _, k := range []int{1, 2, 5} {
			got := topPagesAppendCtx(ctx, pages, row, k, nil)
			want := topPagesAppendCtx(ctx, pages, wide, k, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d k=%d: %v, widened %v (row %v)", trial, n, k, got, want, row)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d k=%d: %v, widened %v (row %v)", trial, n, k, got, want, row)
				}
			}
			ctx.Reset()
		}
	}
}

package models

import (
	"math"

	"mpgraph/internal/tensor"
)

// The scoring entry points (DESIGN.md §8). Every model scores through its
// ctx entry point, DeltaScoresCtx or TopPagesAppendCtx, and there is one
// forward behind it, its stacked one (fastpath_batch.go), whatever the ctx:
// a live ctx runs it graph-free on the arena with zero steady-state heap
// allocations, a nil ctx runs the same body as the autograd composition that
// training, Tables 6/7 and the distillation teachers read (float64 only).
// This file holds the dispatchers, the arena decode helpers the mirrors
// share, and the one-sample entry points.

// DeltaScoresWith returns m's scores for s on c (m.DeltaScoresCtx). Only
// the repository benchmark (benchmark/) calls it; every other caller calls
// the method.
func DeltaScoresWith(c *tensor.Ctx, m DeltaModel, s *Sample) []float64 {
	return m.DeltaScoresCtx(c, s)
}

// TopPagesWith appends m's top-k pages for s to dst on c
// (m.TopPagesAppendCtx). Only the repository benchmark (benchmark/) calls
// it; every other caller calls the method.
func TopPagesWith(c *tensor.Ctx, m PageModel, s *Sample, k int, dst []uint64) []uint64 {
	return m.TopPagesAppendCtx(c, s, k, dst)
}

// TopKClassesCtx returns the indices of the k largest scores, descending,
// equal scores in index order; on a live ctx the result is drawn from the
// arena.
//
//mpgraph:noalloc
func TopKClassesCtx(c *tensor.Ctx, scores []float64, k int) []int {
	return topKSelectInto(c.Ints(min(k, len(scores))), scores)
}

// topKSelectInto ranks the len(top) best-scoring indices (len(top) <=
// len(scores)) into top in one pass over scores, in the order of a full
// sort (the oracle in the tests): descending score, equal scores broken by
// lower index. top is kept sorted as it fills, and tensor.FirstAbove's
// vector scan skips the scores that do not beat the current worst entry —
// nearly all of them when k is the hot paths' 2 — so the scan stops only
// where an insert happens; a later index never displaces an equal earlier
// one, and a NaN never enters past the first k. An f32 row ranks as its
// float64 widening would: widening is exact and monotone, so every compare,
// NaN, ±0 and ±Inf included, comes out the same.
//
//mpgraph:noalloc
func topKSelectInto[T float32 | float64](top []int, scores []T) []int {
	k := len(top)
	if k == 0 {
		return top
	}
	for i := 0; i < k; i++ {
		topKInsert(top, scores, i, i)
	}
	worst := scores[top[k-1]]
	for i := k; ; i++ {
		i += tensor.FirstAbove(scores[i:], worst)
		if i >= len(scores) {
			return top
		}
		topKInsert(top, scores, k-1, i)
		worst = scores[top[k-1]]
	}
}

// topKInsert places index i into the sorted prefix top[:j], shifting the
// entries it beats one slot down (the one in slot j falls off).
//
//mpgraph:noalloc
func topKInsert[T float32 | float64](top []int, scores []T, j, i int) {
	for ; j > 0 && scores[i] > scores[top[j-1]]; j-- {
		top[j] = top[j-1]
	}
	top[j] = i
}

// topPagesAppendCtx maps the best-scoring known tokens back to page values,
// appending up to k of them to dst.
//
//mpgraph:noalloc
func topPagesAppendCtx[T float32 | float64](c *tensor.Ctx, pages *Vocab, scores []T, k int, dst []uint64) []uint64 {
	added := 0
	for _, tok := range topKSelectInto(c.Ints(min(k+1, len(scores))), scores) {
		if page, ok := pages.Value(tok); ok {
			dst = append(dst, page)
			added++
			if added == k {
				break
			}
		}
	}
	return dst
}

// --- sequential entry points ---
//
// One sample is the B=1 case of the batched forward (fastpath_batch.go): no
// model has a sequential forward of its own, so sequential and batched scores
// are the same bits at any batch size. The one-sample slices live on the
// caller's stack, which keeps these at 0 allocs/op on a live ctx.

// DeltaScoresCtx implements DeltaModel.
//
//mpgraph:noalloc
func (m *AMMADelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// TopPagesAppendCtx implements PageModel.
//
//mpgraph:noalloc
func (m *AMMAPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// DeltaScoresCtx implements DeltaModel.
//
//mpgraph:noalloc
func (m *LSTMDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// TopPagesAppendCtx implements PageModel.
//
//mpgraph:noalloc
func (m *LSTMPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// DeltaScoresCtx implements DeltaModel.
//
//mpgraph:noalloc
func (m *AttnDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// TopPagesAppendCtx implements PageModel.
//
//mpgraph:noalloc
func (m *AttnPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// --- binary-encoded compressed head ---

// binaryTopPagesAppendCtx is BinaryPage's candidate decode: rank bits by
// confidence distance from 0.5 (ascending, by a swap-on-less pass), then try
// the maximum-likelihood code followed by single-bit flips in uncertainty
// order, at most 4k candidates, keeping up to k distinct known pages.
//
//mpgraph:noalloc
func binaryTopPagesAppendCtx(c *tensor.Ctx, pages *Vocab, probs []float64, k int, dst []uint64) []uint64 {
	base := DecodeBinary(probs)
	order := c.Ints(len(probs))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if math.Abs(probs[order[j]]-0.5) < math.Abs(probs[order[i]]-0.5) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	// Candidate ci=0 is the base code; ci>0 flips bit order[ci-1]. Dedupe
	// scans the region appended by this call.
	start := len(dst)
	added := 0
	for ci := 0; ci < 4*k && ci <= len(order); ci++ {
		id := base
		if ci > 0 {
			id = base ^ (1 << order[ci-1])
		}
		page, ok := pages.Value(id)
		if !ok {
			continue
		}
		dup := false
		for _, p := range dst[start:] {
			if p == page {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, page)
		added++
		if added == k {
			break
		}
	}
	return dst
}

// binaryTopPagesOne decodes one sample's pages from the bit logits the float
// head produces over a pooled backbone row. Both BinaryPage tiers share it:
// the head stays float64 even where the backbone is f32 — its
// outputs are thresholded at 0.5 to decode a bit code, where a near-threshold
// rounding flips the whole decoded id rather than perturbing a ranking, and
// it is a few hundred weights with nothing to win.
//
//mpgraph:noalloc
func (m *BinaryPage) binaryTopPagesOne(c *tensor.Ctx, pooled *tensor.Tensor, k int, dst []uint64) []uint64 {
	probs := tensor.SigmoidInPlace(c, m.head.ForwardCtx(c, pooled)).Data
	return binaryTopPagesAppendCtx(c, m.pages, probs, k, dst)
}

// TopPagesAppendCtx implements PageModel: the binary-encoded compressed
// head, through the same one-sample batched backbone as the other float
// models. Candidates are generated by flipping the least-confident bits of
// the maximum-likelihood code, keeping only ids that map to known pages.
//
//mpgraph:noalloc
func (m *BinaryPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	one := [1]*Sample{s}
	return m.binaryTopPagesOne(c, m.core.pooledTokensBatchCtx(c, m.pages, m.pcs, one[:]), k, dst)
}

// --- phase-specific wrappers (dispatch on the sample's phase) ---

// DeltaScoresCtx implements DeltaModel by dispatching on s.Phase.
func (ps *PhaseSpecificDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	return ps.modelFor(s.Phase).DeltaScoresCtx(c, s)
}

// TopPagesAppendCtx implements PageModel by dispatching on s.Phase.
func (ps *PhaseSpecificPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	return ps.modelFor(s.Phase).TopPagesAppendCtx(c, s, k, dst)
}

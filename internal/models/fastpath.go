package models

import (
	"math"

	"mpgraph/internal/tensor"
)

// Arena fast paths for model inference (DESIGN.md §8). Each predictor gains
// a ctx variant of its scoring entry point that threads a *tensor.Ctx
// through the forward pass: a nil ctx reproduces the exact autograd path,
// a non-nil ctx runs graph-free on the arena with zero steady-state heap
// allocations. The capability interfaces below keep the base DeltaModel /
// PageModel contracts untouched — an implementation without a fast path
// simply falls back. The live-ctx float forward itself is written once, in
// its batched form (fastpath_batch.go); this file holds the dispatchers, the
// arena decode helpers the mirrors share, and the one-sample entry points.

// DeltaScorerCtx is a DeltaModel with an arena fast path. Fast-path scores
// are arena-backed: valid only until the ctx is reset.
type DeltaScorerCtx interface {
	DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64
}

// PageTopperCtx is a PageModel with an arena fast path. TopPagesAppendCtx
// appends up to k pages to dst and returns it, so callers can reuse one
// result buffer across calls.
type PageTopperCtx interface {
	TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64
}

// DeltaScoresWith scores s on the fast path when m supports it (and c is
// non-nil), falling back to the allocating DeltaScores otherwise.
func DeltaScoresWith(c *tensor.Ctx, m DeltaModel, s *Sample) []float64 {
	if fc, ok := m.(DeltaScorerCtx); ok && c != nil {
		return fc.DeltaScoresCtx(c, s)
	}
	return m.DeltaScores(s)
}

// TopPagesWith appends m's top-k pages for s to dst on the fast path when m
// supports it, falling back to TopPages otherwise.
func TopPagesWith(c *tensor.Ctx, m PageModel, s *Sample, k int, dst []uint64) []uint64 {
	if fc, ok := m.(PageTopperCtx); ok && c != nil {
		return fc.TopPagesAppendCtx(c, s, k, dst)
	}
	return append(dst, m.TopPages(s, k)...)
}

// TopKClassesCtx is TopKClasses with the result drawn from the arena; a nil
// ctx falls back to the allocating sort.
//
//mpgraph:noalloc
func TopKClassesCtx(c *tensor.Ctx, scores []float64, k int) []int {
	if c == nil {
		return TopKClasses(scores, k)
	}
	return topKSelectInto(c.Ints(min(k, len(scores))), scores)
}

// topKSelectInto ranks the len(top) best-scoring indices (len(top) <=
// len(scores)) into top in one pass over scores, reproducing TopKClasses'
// order exactly: descending score, equal scores broken by lower index. top
// is kept sorted as it fills, and tensor.FirstAbove's vector scan skips the
// scores that do not beat the current worst entry — nearly all of them when k
// is the hot paths' 2 — so the scan stops only where an insert happens; a
// later index never displaces an equal earlier one, and a NaN never enters
// past the first k. An f32 row
// ranks as its float64 widening would: widening is exact and monotone, so
// every compare, NaN, ±0 and ±Inf included, comes out the same.
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
// appending to dst (the ctx analogue of topPagesFromScores).
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
// caller's stack, which keeps these at 0 allocs/op.

// DeltaScoresCtx implements DeltaScorerCtx.
//
//mpgraph:noalloc
func (m *AMMADelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	if c == nil {
		return m.DeltaScores(s)
	}
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// TopPagesAppendCtx implements PageTopperCtx.
//
//mpgraph:noalloc
func (m *AMMAPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// DeltaScoresCtx implements DeltaScorerCtx.
//
//mpgraph:noalloc
func (m *LSTMDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	if c == nil {
		return m.DeltaScores(s)
	}
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// TopPagesAppendCtx implements PageTopperCtx.
//
//mpgraph:noalloc
func (m *LSTMPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// DeltaScoresCtx implements DeltaScorerCtx.
//
//mpgraph:noalloc
func (m *AttnDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	if c == nil {
		return m.DeltaScores(s)
	}
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// TopPagesAppendCtx implements PageTopperCtx.
//
//mpgraph:noalloc
func (m *AttnPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// --- binary-encoded compressed head ---

// binaryTopPagesAppendCtx is the arena analogue of BinaryPage.TopPages'
// candidate decode: rank bits by confidence distance from 0.5 (ascending,
// the same swap-on-less pass as the float path so tie ordering is
// identical), then try the maximum-likelihood code followed by single-bit
// flips in uncertainty order, keeping up to k distinct known pages.
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
	// Candidate ci=0 is the base code; ci>0 flips bit order[ci-1]. The 4k
	// cap and known-page dedupe match the float path; dedupe scans the
	// region appended by this call instead of a map.
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

// TopPagesAppendCtx implements PageTopperCtx: the float fast path of the
// binary-encoded compressed head, through the same one-sample batched
// backbone as the other float models.
//
//mpgraph:noalloc
func (m *BinaryPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one := [1]*Sample{s}
	return m.binaryTopPagesOne(c, m.core.pooledTokensBatchCtx(c, m.pages, m.pcs, one[:]), k, dst)
}

// --- phase-specific wrappers (dispatch then recurse on the fast path) ---

// DeltaScoresCtx implements DeltaScorerCtx by dispatching on s.Phase.
func (ps *PhaseSpecificDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	return DeltaScoresWith(c, ps.modelFor(s.Phase), s)
}

// TopPagesAppendCtx implements PageTopperCtx by dispatching on s.Phase.
func (ps *PhaseSpecificPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	return TopPagesWith(c, ps.modelFor(s.Phase), s, k, dst)
}

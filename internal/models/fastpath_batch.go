package models

import (
	"mpgraph/internal/invariant"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// Batched inference tier (DESIGN.md §11). A batch stacks B same-length
// history samples session-major into one [B*T x d] activation block and runs
// a single fused pass, so every weight panel streams through cache once for
// B predictions instead of B times. The gather helpers below build the
// stacked inputs; the per-model forwards use the batch-aware ops (blocked
// attention, per-block mean/positional ops) where the session boundary
// matters and the row-wise layers everywhere else. For the float64 models
// these are the only live-ctx forwards: the sequential entry points in
// fastpath.go call them with one sample.
//
// Determinism: every batched op computes a session block as a pure function
// of that session's rows, so scores never depend on batch composition —
// sequential, batch-1 and batch-64 produce identical bits on all three
// precisions, which keeps sweep reports byte-identical at any batch size.

// DeltaScorerBatchCtx is a DeltaModel with a batched fast path: row i of the
// returned tensor holds the scores for ss[i]. Arena-backed, valid until the
// ctx is reset.
type DeltaScorerBatchCtx interface {
	DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor
}

// PageTopperBatchCtx is a PageModel with a batched fast path: up to k pages
// for ss[i] are appended to dst[i] in place.
type PageTopperBatchCtx interface {
	TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64)
}

// DeltaScoresBatchWith scores every sample in one fused pass when m supports
// it (and c is non-nil), falling back to stacking sequential scores. The
// batch path is taken for ANY batch size including 1 — the cross-batch-size
// byte-identity contract requires every batched session to run the same
// kernels regardless of how many sessions flushed together.
func DeltaScoresBatchWith(c *tensor.Ctx, m DeltaModel, ss []*Sample) *tensor.Tensor {
	if bc, ok := m.(DeltaScorerBatchCtx); ok && c != nil {
		return bc.DeltaScoresBatchCtx(c, ss)
	}
	var out *tensor.Tensor
	for i, s := range ss {
		scores := DeltaScoresWith(c, m, s)
		if out == nil {
			if c != nil {
				out = c.Zeros(len(ss), len(scores))
			} else {
				out = tensor.Zeros(len(ss), len(scores))
			}
		}
		copy(out.Data[i*len(scores):(i+1)*len(scores)], scores)
	}
	return out
}

// TopPagesBatchWith ranks pages for every sample in one fused pass when m
// supports it, falling back to sequential calls. dst[i] receives ss[i]'s
// pages appended in place.
func TopPagesBatchWith(c *tensor.Ctx, m PageModel, ss []*Sample, k int, dst [][]uint64) {
	if bc, ok := m.(PageTopperBatchCtx); ok && c != nil {
		bc.TopPagesBatchAppendCtx(c, ss, k, dst)
		return
	}
	for i, s := range ss {
		dst[i] = TopPagesWith(c, m, s, k, dst[i])
	}
}

// AppendDeltaTargets screens a delta score vector, ranks the top-k classes,
// and decodes each class back to a block target around base, appending the
// non-negative targets to dst. This is the shared score→prefetch decode the
// CSTP paths (core and prefetch) and the batch scheduler all use; class
// cfgRange-1 maps to delta -1, cfgRange to +1 (no zero delta).
//
//mpgraph:noalloc
func AppendDeltaTargets(c *tensor.Ctx, scores []float64, base uint64, k int, dst []uint64) ([]uint64, error) {
	if err := ScreenScores(scores); err != nil { //mpgraph:allow noalloc -- allocates only on the non-finite failure path, which degrades the prefetcher
		return dst, err
	}
	cfgRange := len(scores) / 2
	for _, cls := range TopKClassesCtx(c, scores, k) {
		var d int64
		if cls < cfgRange {
			d = int64(cls) - int64(cfgRange)
		} else {
			d = int64(cls) - int64(cfgRange) + 1
		}
		if t := int64(base) + d; t >= 0 {
			dst = append(dst, uint64(t))
		}
	}
	return dst, nil
}

// --- stacked gather helpers ---

// batchT validates the uniform window length the stacked layout requires and
// returns it.
//
//mpgraph:noalloc
func batchT(ss []*Sample) int {
	if len(ss) == 0 {
		invariant.Fail("models: empty batch")
	}
	t := len(ss[0].Blocks)
	for _, s := range ss {
		if len(s.Blocks) != t || len(s.PCs) != t {
			invariant.Failf("models: ragged batch: %d/%d rows vs %d", len(s.Blocks), len(s.PCs), t)
		}
	}
	return t
}

//mpgraph:noalloc
func pcTokensBatchCtx(c *tensor.Ctx, v *Vocab, ss []*Sample, t int) []int {
	out := c.Ints(len(ss) * t)
	for i, s := range ss {
		for j, pc := range s.PCs {
			out[i*t+j] = v.Token(pc)
		}
	}
	return out
}

//mpgraph:noalloc
func pageTokensBatchCtx(c *tensor.Ctx, v *Vocab, ss []*Sample, t int) []int {
	out := c.Ints(len(ss) * t)
	for i, s := range ss {
		for j, b := range s.Blocks {
			out[i*t+j] = v.Token(trace.PageOfBlock(b))
		}
	}
	return out
}

// addrFeatureTensorBatchCtx stacks addrFeatureTensorCtx for every sample.
//
//mpgraph:noalloc
func addrFeatureTensorBatchCtx(c *tensor.Ctx, cfg Config, ss []*Sample, t int) *tensor.Tensor {
	out := c.Zeros(len(ss)*t, cfg.NumSegments)
	for i, s := range ss {
		for j, b := range s.Blocks {
			r := i*t + j
			SegmentBlockInto(cfg, b, out.Data[r*cfg.NumSegments:(r+1)*cfg.NumSegments])
		}
	}
	return out
}

// concatStepFeaturesBatchCtx stacks concatStepFeaturesCtx for every sample.
//
//mpgraph:noalloc
func concatStepFeaturesBatchCtx(c *tensor.Ctx, cfg Config, ss []*Sample, t int) *tensor.Tensor {
	cols := cfg.NumSegments + 1
	out := c.Zeros(len(ss)*t, cols)
	for i, s := range ss {
		for j := range s.Blocks {
			r := i*t + j
			SegmentBlockInto(cfg, s.Blocks[j], out.Data[r*cols:r*cols+cfg.NumSegments])
			out.Data[r*cols+cfg.NumSegments] = hashPC(s.PCs[j])
		}
	}
	return out
}

// phaseIDsBatch gathers each session's phase-embedding row id.
//
//mpgraph:noalloc
func phaseIDsBatch(c *tensor.Ctx, ss []*Sample, vocab int) []int {
	ids := c.Ints(len(ss))
	for i, s := range ss {
		ids[i] = s.Phase % vocab
	}
	return ids
}

// --- batched modality encoders / AMMA core (float) ---

//mpgraph:noalloc
func (m *modalityEncoder) encodeFeaturesBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, c.AddPosBatch(m.lin.ForwardCtx(c, x), m.pos, blocks), blocks)
}

//mpgraph:noalloc
func (m *modalityEncoder) encodeTokensBatchCtx(c *tensor.Ctx, ids []int, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, c.AddPosBatch(m.table.ForwardCtx(c, ids), m.pos, blocks), blocks)
}

// forwardBatchCtx is ammaCore.forwardCtx over a stacked batch.
//
//mpgraph:noalloc
func (core *ammaCore) forwardBatchCtx(c *tensor.Ctx, encA, encB *tensor.Tensor, ss []*Sample) *tensor.Tensor {
	blocks := len(ss)
	fused := core.fusion.ForwardBatchCtx2(c, encA, encB, blocks) //mpgraph:allow noalloc -- fixed-arity fast path; the cross-package naming rule keys on a Ctx suffix
	if core.phaseEmb != nil {
		ids := phaseIDsBatch(c, ss, core.phaseEmb.Vocab()) //mpgraph:allow noalloc -- Vocab is a field read
		fused = c.AddRowPerBlock(fused, core.phaseEmb.Table, ids, blocks)
	}
	for _, tl := range core.trans {
		fused = tl.ForwardBatchCtx(c, fused, blocks)
	}
	return c.MeanRowsBatch(fused, blocks)
}

// --- AMMA ---

//mpgraph:noalloc
func (m *AMMADelta) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.core.modA.encodeFeaturesBatchCtx(c, addrFeatureTensorBatchCtx(c, m.cfg, ss, t), len(ss))
	encB := m.core.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return m.head.ForwardCtx(c, m.core.forwardBatchCtx(c, encA, encB, ss))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *AMMADelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return c.SigmoidInPlace(m.logitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *AMMAPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.core.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, m.pages, ss, t), len(ss))
	encB := m.core.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return m.head.ForwardCtx(c, m.core.forwardBatchCtx(c, encA, encB, ss))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *AMMAPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	scores := m.logitsBatchCtx(c, ss)
	for i := range ss {
		row := scores.Data[i*scores.Cols : (i+1)*scores.Cols]
		dst[i] = topPagesAppendCtx(c, m.pages, row, k, dst[i])
	}
}

// --- baselines ---

//mpgraph:noalloc
func (m *LSTMDelta) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	x := concatStepFeaturesBatchCtx(c, m.cfg, ss, t)
	return m.head.ForwardCtx(c, m.lstm.ForwardBatchCtx(c, x, len(ss)))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *LSTMDelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return c.SigmoidInPlace(m.logitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *LSTMPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	pe := m.pageEmb.ForwardCtx(c, pageTokensBatchCtx(c, m.pages, ss, t))
	ce := m.pcEmb.ForwardCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t))
	return m.head.ForwardCtx(c, m.lstm.ForwardBatchCtx(c, c.ConcatCols2(pe, ce), len(ss)))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *LSTMPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	scores := m.logitsBatchCtx(c, ss)
	for i := range ss {
		row := scores.Data[i*scores.Cols : (i+1)*scores.Cols]
		dst[i] = topPagesAppendCtx(c, m.pages, row, k, dst[i])
	}
}

//mpgraph:noalloc
func (m *AttnDelta) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	x := c.AddPosBatch(m.embed.ForwardCtx(c, concatStepFeaturesBatchCtx(c, m.cfg, ss, t)), m.pos, len(ss))
	for _, tl := range m.trans {
		x = tl.ForwardBatchCtx(c, x, len(ss))
	}
	return m.head.ForwardCtx(c, c.MeanRowsBatch(x, len(ss)))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *AttnDelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return c.SigmoidInPlace(m.logitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *AttnPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	pe := m.pageEmb.ForwardCtx(c, pageTokensBatchCtx(c, m.pages, ss, t))
	side := c.Zeros(len(ss)*t, 1)
	for i, s := range ss {
		for j, pc := range s.PCs {
			side.Data[i*t+j] = hashPC(pc)
		}
	}
	x := c.AddPosBatch(m.mix.ForwardCtx(c, c.ConcatCols2(pe, side)), m.pos, len(ss))
	for _, tl := range m.trans {
		x = tl.ForwardBatchCtx(c, x, len(ss))
	}
	return m.head.ForwardCtx(c, c.MeanRowsBatch(x, len(ss)))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *AttnPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	scores := m.logitsBatchCtx(c, ss)
	for i := range ss {
		row := scores.Data[i*scores.Cols : (i+1)*scores.Cols]
		dst[i] = topPagesAppendCtx(c, m.pages, row, k, dst[i])
	}
}

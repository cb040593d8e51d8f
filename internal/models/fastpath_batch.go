package models

import (
	"mpgraph/internal/invariant"
	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// Batched inference tier (DESIGN.md §11). A batch stacks B same-length
// history samples session-major into one [B*T x d] activation block and runs
// a single fused pass, so every weight panel streams through cache once for
// B predictions instead of B times. The gather helpers below build the
// stacked inputs; the per-model forwards use the batch-aware ops (blocked
// attention, per-block mean/positional ops) where the session boundary
// matters and the row-wise layers everywhere else. These are the only
// forwards, written once over the element type: a float64 model and its f32
// mirror (f32.go) run the same body on their own weights, the sequential
// entry points call it with one sample, and training calls it with one
// sample on a nil ctx, where every op is its autograd composition.
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
// it (and c is non-nil), falling back to stacking sequential scores (a
// phase-specific wrapper, whose samples may dispatch to different models,
// or the binary page head). The batch path is taken for ANY batch size including 1 — the cross-batch-size
// byte-identity contract requires every batched session to run the same
// kernels regardless of how many sessions flushed together.
func DeltaScoresBatchWith(c *tensor.Ctx, m DeltaModel, ss []*Sample) *tensor.Tensor {
	if bc, ok := m.(DeltaScorerBatchCtx); ok && c != nil {
		return bc.DeltaScoresBatchCtx(c, ss)
	}
	var out *tensor.Tensor
	for i, s := range ss {
		scores := m.DeltaScoresCtx(c, s)
		if out == nil {
			out = tensor.ZerosCtx[float64](c, len(ss), len(scores))
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
		dst[i] = m.TopPagesAppendCtx(c, s, k, dst[i])
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

// addrFeatureTensorBatchCtx encodes every sample's window of block addresses
// as [T x NumSegments] segment features (SegmentBlockInto), stacked.
//
//mpgraph:noalloc
func addrFeatureTensorBatchCtx(c *tensor.Ctx, cfg Config, ss []*Sample, t int) *tensor.Tensor {
	out := tensor.ZerosCtx[float64](c, len(ss)*t, cfg.NumSegments)
	for i, s := range ss {
		for j, b := range s.Blocks {
			r := i*t + j
			SegmentBlockInto(cfg, b, out.Data[r*cfg.NumSegments:(r+1)*cfg.NumSegments])
		}
	}
	return out
}

// concatStepFeaturesBatchCtx builds the per-step [T x (NumSegments+1)]
// input the LSTM and vanilla-attention baselines consume — address segments
// concatenated with the hashed PC — for every sample, stacked.
//
//mpgraph:noalloc
func concatStepFeaturesBatchCtx(c *tensor.Ctx, cfg Config, ss []*Sample, t int) *tensor.Tensor {
	cols := cfg.NumSegments + 1
	out := tensor.ZerosCtx[float64](c, len(ss)*t, cols)
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
//
// The feature builders above stay float64 (address segments and PC hashes are
// computed once, in full precision); NarrowCtx hands them to the compute tier,
// rounding to f32 on the f32 mirrors and passing through at float64.

//mpgraph:noalloc
func (m *modalityEncoder[T]) encodeFeaturesBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Dense[T] {
	h := m.lin.ForwardCtx(c, tensor.NarrowCtx[T](c, x))
	return m.attn.ForwardBatchCtx(c, tensor.AddPosBatch(c, h, m.pos, blocks), blocks)
}

//mpgraph:noalloc
func (m *modalityEncoder[T]) encodeTokensBatchCtx(c *tensor.Ctx, ids []int, blocks int) *tensor.Dense[T] {
	return m.attn.ForwardBatchCtx(c, tensor.EmbeddingPosBatch(c, m.table.Table, ids, m.pos, blocks), blocks)
}

// forwardBatchCtx fuses the two encoded modalities of a stacked batch and
// pools each session to one [1 x FusionDim] row.
//
//mpgraph:noalloc
func (core *ammaCore[T]) forwardBatchCtx(c *tensor.Ctx, encA, encB *tensor.Dense[T], ss []*Sample) *tensor.Dense[T] {
	blocks := len(ss)
	fused := core.fusion.ForwardCtx(c, encA, encB, blocks)
	if core.phaseEmb != nil {
		// Phase embedding incorporated as side information after the
		// fusion of the two modalities (AMMA-PI, Section 5.3.1).
		ids := phaseIDsBatch(c, ss, core.phaseEmb.Vocab())
		fused = tensor.AddRowPerBlock(c, fused, core.phaseEmb.Table, ids, blocks)
	}
	for _, tl := range core.trans {
		fused = tl.ForwardBatchCtx(c, fused, blocks)
	}
	return tensor.MeanRowsBatch(c, fused, blocks)
}

// pooledTokensBatchCtx is the page-token + PC-token backbone AMMAPage and
// BinaryPage share: both modalities tokenized, encoded, fused and pooled.
//
//mpgraph:noalloc
func (core *ammaCore[T]) pooledTokensBatchCtx(c *tensor.Ctx, pages, pcs *Vocab, ss []*Sample) *tensor.Dense[T] {
	t := batchT(ss)
	encA := core.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, pages, ss, t), len(ss))
	encB := core.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, pcs, ss, t), len(ss))
	return core.forwardBatchCtx(c, encA, encB, ss)
}

// topPagesBatchAppend ranks each row of a [B x vocab] score block and appends
// its top-k known pages to the matching dst entry.
//
//mpgraph:noalloc
func topPagesBatchAppend[T float32 | float64](c *tensor.Ctx, pages *Vocab, scores *tensor.Dense[T], k int, dst [][]uint64) {
	for i := 0; i < scores.Rows; i++ {
		dst[i] = topPagesAppendCtx(c, pages, scores.Row(i), k, dst[i])
	}
}

// --- AMMA ---

// ammaDeltaLogits is the AMMA delta forward (Fig. 7a) over a stacked batch,
// on m's own weights or an f32 mirror's.
//
//mpgraph:noalloc
func ammaDeltaLogits[T float32 | float64](c *tensor.Ctx, m *AMMADelta, core *ammaCore[T], head *nn.MLPOf[T], ss []*Sample) *tensor.Dense[T] {
	t := batchT(ss)
	encA := core.modA.encodeFeaturesBatchCtx(c, addrFeatureTensorBatchCtx(c, m.cfg, ss, t), len(ss))
	encB := core.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return head.ForwardCtx(c, core.forwardBatchCtx(c, encA, encB, ss))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *AMMADelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return tensor.SigmoidInPlace(c, ammaDeltaLogits(c, m, m.core, m.head, ss))
}

//mpgraph:noalloc
func (m *AMMAPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return m.head.ForwardCtx(c, m.core.pooledTokensBatchCtx(c, m.pages, m.pcs, ss))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *AMMAPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	topPagesBatchAppend(c, m.pages, m.logitsBatchCtx(c, ss), k, dst)
}

// --- baselines ---

// lstmDeltaLogits is the Delta-LSTM forward over a stacked batch, on m's own
// weights or an f32 mirror's.
//
//mpgraph:noalloc
func lstmDeltaLogits[T float32 | float64](c *tensor.Ctx, m *LSTMDelta, lstm *nn.LSTMOf[T], head *nn.MLPOf[T], ss []*Sample) *tensor.Dense[T] {
	x := tensor.NarrowCtx[T](c, concatStepFeaturesBatchCtx(c, m.cfg, ss, batchT(ss)))
	return head.ForwardCtx(c, lstm.ForwardBatchCtx(c, x, len(ss)))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *LSTMDelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return tensor.SigmoidInPlace(c, lstmDeltaLogits(c, m, m.lstm, m.head, ss))
}

//mpgraph:noalloc
func (m *LSTMPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	pe := m.pageEmb.ForwardCtx(c, pageTokensBatchCtx(c, m.pages, ss, t))
	ce := m.pcEmb.ForwardCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t))
	return m.head.ForwardCtx(c, m.lstm.ForwardBatchCtx(c, tensor.ConcatCols2(c, pe, ce), len(ss)))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *LSTMPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	topPagesBatchAppend(c, m.pages, m.logitsBatchCtx(c, ss), k, dst)
}

//mpgraph:noalloc
func (m *AttnDelta) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	x := tensor.AddPosBatch(c, m.embed.ForwardCtx(c, concatStepFeaturesBatchCtx(c, m.cfg, ss, t)), m.pos, len(ss))
	for _, tl := range m.trans {
		x = tl.ForwardBatchCtx(c, x, len(ss))
	}
	return m.head.ForwardCtx(c, tensor.MeanRowsBatch(c, x, len(ss)))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *AttnDelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return tensor.SigmoidInPlace(c, m.logitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *AttnPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	pe := m.pageEmb.ForwardCtx(c, pageTokensBatchCtx(c, m.pages, ss, t))
	side := tensor.ZerosCtx[float64](c, len(ss)*t, 1)
	for i, s := range ss {
		for j, pc := range s.PCs {
			side.Data[i*t+j] = hashPC(pc)
		}
	}
	x := tensor.AddPosBatch(c, m.mix.ForwardCtx(c, tensor.ConcatCols2(c, pe, side)), m.pos, len(ss))
	for _, tl := range m.trans {
		x = tl.ForwardBatchCtx(c, x, len(ss))
	}
	return m.head.ForwardCtx(c, tensor.MeanRowsBatch(c, x, len(ss)))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *AttnPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	topPagesBatchAppend(c, m.pages, m.logitsBatchCtx(c, ss), k, dst)
}

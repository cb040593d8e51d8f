package models

// Single-precision mirrors of the trained predictors (DESIGN.md §8). An f32
// model embeds its float64 source — training and Params delegate — and
// overrides the ctx entry points with the f32 forward. Like every f32 op they
// need a live ctx: the autograd forward (a nil ctx) is the source model's.
// There is no f32 forward to read here: a mirror holds the narrowed
// instantiation of its source's backbone (ammaCore[float32], nn.F32LSTM, …)
// and runs the one generic forward of fastpath_batch.go on it. What is
// f32-specific is only the two ends — NarrowCtx rounds the float64 features
// in, and the score hand-off (tensor.SigmoidWidenCtx) widens and screens
// them out.
//
// There is no calibration: weights are narrowed once at conversion (f64 →
// f32 round-to-nearest) and the activation path runs natively in f32. Delta
// scores cross back to float64 through an exact widening — monotonic, and
// preserving every f32 Inf or NaN bit pattern, so ScreenScores' non-finite
// health screen sees precisely what the f32 kernels produced (an f16/f32-
// range overflow surfaces as a screened Inf, never a silently clamped
// score). Page logits are ranked as f32 where they stand (topKSelectInto is
// generic): the same order, tie for tie, as their widening.

import (
	"fmt"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// --- f32 AMMA backbone ---

func convertModalityEncoderF32(m *modalityEncoder[float64]) *modalityEncoder[float32] {
	f := &modalityEncoder[float32]{
		pos:  tensor.NarrowF32(m.pos),
		attn: nn.NewF32SelfAttention(m.attn),
	}
	if m.lin != nil {
		f.lin = nn.NewF32Linear(m.lin)
	}
	if m.table != nil {
		f.table = nn.NewF32Embedding(m.table)
	}
	return f
}

func convertAMMACoreF32(core *ammaCore[float64]) *ammaCore[float32] {
	fc := &ammaCore[float32]{
		modA:   convertModalityEncoderF32(core.modA),
		modB:   convertModalityEncoderF32(core.modB),
		fusion: nn.NewF32MMAF(core.fusion),
	}
	for _, tl := range core.trans {
		fc.trans = append(fc.trans, nn.NewF32TransformerLayer(tl))
	}
	if core.phaseEmb != nil {
		fc.phaseEmb = nn.NewF32Embedding(core.phaseEmb)
	}
	return fc
}

// --- f32 predictors ---

// F32AMMADelta is the f32 mirror of AMMADelta. The embedded float64 model
// serves training and Params.
type F32AMMADelta struct {
	*AMMADelta
	fcore *ammaCore[float32]
	fhead *nn.F32MLP
}

// NewF32AMMADelta narrows m's weights into an f32 mirror.
func NewF32AMMADelta(m *AMMADelta) *F32AMMADelta {
	return &F32AMMADelta{AMMADelta: m, fcore: convertAMMACoreF32(m.core), fhead: nn.NewF32MLP(m.head)}
}

// DeltaScoresCtx implements DeltaModel on the f32 path.
//
//mpgraph:noalloc
func (m *F32AMMADelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx on the f32 path.
//
//mpgraph:noalloc
func (m *F32AMMADelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return tensor.SigmoidWidenCtx(c, ammaDeltaLogits(c, m.AMMADelta, m.fcore, m.fhead, ss))
}

// F32AMMAPage is the f32 mirror of AMMAPage.
type F32AMMAPage struct {
	*AMMAPage
	fcore *ammaCore[float32]
	fhead *nn.F32MLP
}

// NewF32AMMAPage narrows m's weights into an f32 mirror.
func NewF32AMMAPage(m *AMMAPage) *F32AMMAPage {
	return &F32AMMAPage{AMMAPage: m, fcore: convertAMMACoreF32(m.core), fhead: nn.NewF32MLP(m.head)}
}

// TopPagesAppendCtx implements PageModel on the f32 path.
//
//mpgraph:noalloc
func (m *F32AMMAPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx on the f32 path.
// Ranking runs on the f32 logits themselves: the order is the one their
// exact float64 widening would give (topKSelectInto), without the widening.
//
//mpgraph:noalloc
func (m *F32AMMAPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	logits := m.fhead.ForwardCtx(c, m.fcore.pooledTokensBatchCtx(c, m.pages, m.pcs, ss))
	topPagesBatchAppend(c, m.pages, logits, k, dst)
}

// F32LSTMDelta is the f32 mirror of the Delta-LSTM baseline — the
// single-model speed reference the mixed-precision benchmarks pin.
type F32LSTMDelta struct {
	*LSTMDelta
	flstm *nn.F32LSTM
	fhead *nn.F32MLP
}

// NewF32LSTMDelta narrows m's weights into an f32 mirror.
func NewF32LSTMDelta(m *LSTMDelta) *F32LSTMDelta {
	return &F32LSTMDelta{LSTMDelta: m, flstm: nn.NewF32LSTM(m.lstm), fhead: nn.NewF32MLP(m.head)}
}

// DeltaScoresCtx implements DeltaModel on the f32 path.
//
//mpgraph:noalloc
func (m *F32LSTMDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx on the f32 path.
//
//mpgraph:noalloc
func (m *F32LSTMDelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return tensor.SigmoidWidenCtx(c, lstmDeltaLogits(c, m.LSTMDelta, m.flstm, m.fhead, ss))
}

// F32BinaryPage is the f32 mirror of the binary-encoded compressed page
// predictor. The backbone runs f32; the pooled row is widened once and the
// float64 head and candidate decode run unchanged (see binaryTopPagesOne).
type F32BinaryPage struct {
	*BinaryPage
	fcore *ammaCore[float32]
}

// NewF32BinaryPage narrows m's backbone weights into an f32 mirror.
func NewF32BinaryPage(m *BinaryPage) *F32BinaryPage {
	return &F32BinaryPage{BinaryPage: m, fcore: convertAMMACoreF32(m.core)}
}

// TopPagesAppendCtx implements PageModel on the f32 path, using the same
// bit-flip candidate decode as the float model.
//
//mpgraph:noalloc
func (m *F32BinaryPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	one := [1]*Sample{s}
	pooled := tensor.WidenCtx(c, m.fcore.pooledTokensBatchCtx(c, m.pages, m.pcs, one[:]))
	return m.binaryTopPagesOne(c, pooled, k, dst)
}

// --- suite conversion ---

// ConvertDeltaF32 returns an f32 mirror of a trained delta model. AMMADelta,
// LSTMDelta and PhaseSpecificDelta are supported; anything else is an
// explicit error so callers cannot silently keep running float64.
func ConvertDeltaF32(m DeltaModel) (DeltaModel, error) {
	switch t := m.(type) {
	case *AMMADelta:
		return NewF32AMMADelta(t), nil
	case *LSTMDelta:
		return NewF32LSTMDelta(t), nil
	case *PhaseSpecificDelta:
		out := &PhaseSpecificDelta{Models: make([]DeltaModel, len(t.Models))}
		for p, sub := range t.Models {
			fsub, err := ConvertDeltaF32(sub)
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = fsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no f32 mirror for delta model %T", m)
	}
}

// ConvertPageF32 returns an f32 mirror of a trained page model. AMMAPage,
// BinaryPage and PhaseSpecificPage are supported.
func ConvertPageF32(m PageModel) (PageModel, error) {
	switch t := m.(type) {
	case *AMMAPage:
		return NewF32AMMAPage(t), nil
	case *BinaryPage:
		return NewF32BinaryPage(t), nil
	case *PhaseSpecificPage:
		out := &PhaseSpecificPage{Models: make([]PageModel, len(t.Models))}
		for p, sub := range t.Models {
			fsub, err := ConvertPageF32(sub)
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = fsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no f32 mirror for page model %T", m)
	}
}

// ConvertSuiteF32 converts a delta/page model pair — the wiring the
// experiments pipeline uses under Options.F32.
func ConvertSuiteF32(delta DeltaModel, page PageModel) (DeltaModel, PageModel, error) {
	fd, err := ConvertDeltaF32(delta)
	if err != nil {
		return nil, nil, err
	}
	fp, err := ConvertPageF32(page)
	if err != nil {
		return nil, nil, err
	}
	return fd, fp, nil
}

package models

// Single-precision mirrors of the trained predictors (DESIGN.md §13). Like
// the int8 mirrors, an f32 model embeds its float64 source — training, the
// autograd scoring path and Params all delegate — and overrides only the
// ctx fast path with the f32 kernel composition, so the mirrors slot into
// DeltaScoresWith/TopPagesWith unchanged: a live ctx runs f32, a nil ctx
// falls back to the float64 model. The f32 forward is written once, in its
// batched form (f32_batch.go); one sample is the B=1 case.
//
// Unlike int8 there is no calibration: weights are narrowed once at
// conversion (f64 → f32 round-to-nearest) and the activation path runs
// natively in f32. Scores cross back to float64 through the exact
// WidenCtxF32 hand-off — widening is monotonic and preserves every f32 Inf
// or NaN bit pattern, so rankings, exact tie ordering AND ScreenScores'
// non-finite health screen all see precisely what the f32 kernels produced
// (an f16/f32-range overflow surfaces as a screened Inf, never a silently
// clamped score).

import (
	"fmt"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// --- f32 AMMA backbone ---

// f32ModalityEncoder mirrors modalityEncoder: projection/table, position row
// and attention all narrowed to f32.
type f32ModalityEncoder struct {
	lin   *nn.F32Linear    // nil for token modalities
	table *nn.F32Embedding // nil for feature modalities
	pos   *tensor.F32Tensor
	attn  *nn.F32SelfAttention
}

func convertModalityEncoderF32(m *modalityEncoder) *f32ModalityEncoder {
	f := &f32ModalityEncoder{
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

// f32AMMACore mirrors ammaCore with every block narrowed to f32.
type f32AMMACore struct {
	modA, modB *f32ModalityEncoder
	fusion     *nn.F32MMAF
	trans      []*nn.F32TransformerLayer
	phaseEmb   *nn.F32Embedding // nil unless phase-informed
}

func convertAMMACoreF32(core *ammaCore) *f32AMMACore {
	fc := &f32AMMACore{
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

// sigmoidScoresF32 widens sigmoid(logits) into the float64 score vector the
// decode paths consume. Sigmoid SATURATES: an overflowed f32 logit (e.g. an
// f16-poisoned weight widened to Inf) would squash to a perfectly finite
// probability and sail past ScreenScores. So non-finite logits short-circuit
// the activation and are widened verbatim — the Inf/NaN reaches ScreenScores
// and latches Health() exactly like a float64 blow-up would.
//
//mpgraph:noalloc
func sigmoidScoresF32(c *tensor.Ctx, logits *tensor.F32Tensor) *tensor.Tensor {
	for _, v := range logits.Data {
		if v-v != 0 { // non-finite: Inf-Inf and NaN-NaN are both NaN
			return c.WidenCtxF32(logits)
		}
	}
	return c.WidenCtxF32(c.SigmoidInPlaceF32(logits))
}

// --- f32 predictors ---

// F32AMMADelta is the f32 mirror of AMMADelta. The embedded float64 model
// serves training, Params and the nil-ctx path.
type F32AMMADelta struct {
	*AMMADelta
	fcore *f32AMMACore
	fhead *nn.F32MLP
}

// NewF32AMMADelta narrows m's weights into an f32 mirror.
func NewF32AMMADelta(m *AMMADelta) *F32AMMADelta {
	return &F32AMMADelta{AMMADelta: m, fcore: convertAMMACoreF32(m.core), fhead: nn.NewF32MLP(m.head)}
}

// DeltaScoresCtx implements DeltaScorerCtx on the f32 path.
//
//mpgraph:noalloc
func (m *F32AMMADelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	if c == nil {
		return m.DeltaScores(s)
	}
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// F32AMMAPage is the f32 mirror of AMMAPage.
type F32AMMAPage struct {
	*AMMAPage
	fcore *f32AMMACore
	fhead *nn.F32MLP
}

// NewF32AMMAPage narrows m's weights into an f32 mirror.
func NewF32AMMAPage(m *AMMAPage) *F32AMMAPage {
	return &F32AMMAPage{AMMAPage: m, fcore: convertAMMACoreF32(m.core), fhead: nn.NewF32MLP(m.head)}
}

// TopPagesAppendCtx implements PageTopperCtx on the f32 path. Ranking runs
// over the exactly-widened f32 logits, so tie ordering matches what the f32
// kernels produced.
//
//mpgraph:noalloc
func (m *F32AMMAPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one := [1]*Sample{s}
	return topPagesAppendCtx(c, m.pages, c.WidenCtxF32(m.flogitsBatchCtx(c, one[:])).Data, k, dst)
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

// DeltaScoresCtx implements DeltaScorerCtx on the f32 path.
//
//mpgraph:noalloc
func (m *F32LSTMDelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	if c == nil {
		return m.DeltaScores(s)
	}
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// F32BinaryPage is the f32 mirror of the binary-encoded compressed page
// predictor. The backbone runs f32; the head stays FLOAT64 for the same
// reason QBinaryPage keeps it float — its outputs are thresholded at 0.5 to
// decode a bit code, and the head is a few hundred weights with nothing to
// win — so the pooled backbone output is widened once and the float head
// and candidate decode run unchanged.
type F32BinaryPage struct {
	*BinaryPage
	fcore *f32AMMACore
}

// NewF32BinaryPage narrows m's backbone weights into an f32 mirror.
func NewF32BinaryPage(m *BinaryPage) *F32BinaryPage {
	return &F32BinaryPage{BinaryPage: m, fcore: convertAMMACoreF32(m.core)}
}

//mpgraph:noalloc
func (m *F32BinaryPage) flogitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.fcore.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, m.pages, ss, t), len(ss))
	encB := m.fcore.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	pooled := c.WidenCtxF32(m.fcore.forwardBatchCtx(c, encA, encB, ss))
	return m.head.ForwardCtx(c, pooled)
}

// TopPagesAppendCtx implements PageTopperCtx on the f32 path, using the same
// bit-flip candidate decode as the float model.
//
//mpgraph:noalloc
func (m *F32BinaryPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one := [1]*Sample{s}
	probs := c.SigmoidInPlace(m.flogitsBatchCtx(c, one[:])).Data
	return binaryTopPagesAppendCtx(c, m.pages, probs, k, dst)
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

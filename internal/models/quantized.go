package models

// Int8 quantized mirrors of the trained predictors (DESIGN.md §10). A
// quantized model embeds its float source — training, the autograd scoring
// path and Params all delegate — and overrides only the ctx fast path with
// the int8 kernel composition. The mirrors therefore slot into
// DeltaScoresWith/TopPagesWith unchanged: a live ctx runs int8, a nil ctx
// falls back to the float model.
//
// Construction is two-phase. NewQ* quantizes the weights (per-channel
// symmetric int8) and leaves every layer in calibration mode: forwards run
// the float path while observers record activation ranges. Calibrate/Freeze
// (run by the Quantize* helpers over a short sample pass) locks the
// activation scales and switches the forward to int8. Embeddings, position
// tables, LayerNorm and softmax stay float.

import (
	"fmt"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// calibLimit caps the calibration pass: activation ranges saturate after a
// few dozen representative samples, and quantization is on the experiment
// build path where suites are constructed many times.
const calibLimit = 64

// --- quantized AMMA backbone ---
//
// The int8 forward is written once, in its batched form: one sample is the
// B=1 case, as on the float tiers. It overrides the float batch methods the
// Q-models would otherwise inherit from their embedded float models, and it
// keeps attention on the exact scalar kernels (nn.QSelfAttention), so int8
// scores do not depend on the host's vector unit.

// qModalityEncoder mirrors modalityEncoder: quantized input projection (for
// the feature modality) and attention; embedding table and position row are
// shared with the float source.
type qModalityEncoder struct {
	src  *modalityEncoder[float64]
	lin  *nn.QLinear // nil for token modalities
	attn *nn.QSelfAttention
}

func quantizeModalityEncoder(m *modalityEncoder[float64]) *qModalityEncoder {
	q := &qModalityEncoder{src: m, attn: nn.NewQSelfAttention(m.attn)}
	if m.lin != nil {
		q.lin = nn.NewQLinear(m.lin)
	}
	return q
}

//mpgraph:noalloc
func (m *qModalityEncoder) encodeFeaturesBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, tensor.AddPosBatch(c, m.lin.ForwardCtx(c, x), m.src.pos, blocks), blocks)
}

//mpgraph:noalloc
func (m *qModalityEncoder) encodeTokensBatchCtx(c *tensor.Ctx, ids []int, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, tensor.AddPosBatch(c, m.src.table.ForwardCtx(c, ids), m.src.pos, blocks), blocks)
}

func (m *qModalityEncoder) freeze() {
	if m.lin != nil {
		m.lin.Freeze()
	}
	m.attn.Freeze()
}

// qAMMACore mirrors ammaCore; the phase embedding lookup stays float.
type qAMMACore struct {
	src        *ammaCore[float64]
	modA, modB *qModalityEncoder
	fusion     *nn.QMMAF
	trans      []*nn.QTransformerLayer
}

func quantizeAMMACore(core *ammaCore[float64]) *qAMMACore {
	qc := &qAMMACore{
		src:    core,
		modA:   quantizeModalityEncoder(core.modA),
		modB:   quantizeModalityEncoder(core.modB),
		fusion: nn.NewQMMAF(core.fusion),
	}
	for _, tl := range core.trans {
		qc.trans = append(qc.trans, nn.NewQTransformerLayer(tl))
	}
	return qc
}

// forwardBatchCtx is ammaCore.forwardBatchCtx on the int8 kernels.
//
//mpgraph:noalloc
func (qc *qAMMACore) forwardBatchCtx(c *tensor.Ctx, encA, encB *tensor.Tensor, ss []*Sample) *tensor.Tensor {
	blocks := len(ss)
	fused := qc.fusion.ForwardBatchCtx2(c, encA, encB, blocks)
	if qc.src.phaseEmb != nil {
		ids := phaseIDsBatch(c, ss, qc.src.phaseEmb.Vocab())
		fused = tensor.AddRowPerBlock(c, fused, qc.src.phaseEmb.Table, ids, blocks)
	}
	for _, tl := range qc.trans {
		fused = tl.ForwardBatchCtx(c, fused, blocks)
	}
	return tensor.MeanRowsBatch(c, fused, blocks)
}

// pooledTokensBatchCtx is ammaCore.pooledTokensBatchCtx on the int8 kernels.
//
//mpgraph:noalloc
func (qc *qAMMACore) pooledTokensBatchCtx(c *tensor.Ctx, pages, pcs *Vocab, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := qc.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, pages, ss, t), len(ss))
	encB := qc.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, pcs, ss, t), len(ss))
	return qc.forwardBatchCtx(c, encA, encB, ss)
}

func (qc *qAMMACore) freeze() {
	qc.modA.freeze()
	qc.modB.freeze()
	qc.fusion.Freeze()
	for _, tl := range qc.trans {
		tl.Freeze()
	}
}

// --- quantized predictors ---

// QAMMADelta is the int8 mirror of AMMADelta. The embedded float model
// serves training, Params and the nil-ctx path.
type QAMMADelta struct {
	*AMMADelta
	qcore *qAMMACore
	qhead *nn.QMLP
}

// NewQAMMADelta quantizes m's weights; the mirror starts in calibration
// mode (see Calibrate/Freeze).
func NewQAMMADelta(m *AMMADelta) *QAMMADelta {
	return &QAMMADelta{AMMADelta: m, qcore: quantizeAMMACore(m.core), qhead: nn.NewQMLP(m.head)}
}

// DeltaScoresCtx implements DeltaScorerCtx on the int8 path.
//
//mpgraph:noalloc
func (m *QAMMADelta) DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64 {
	if c == nil {
		return m.DeltaScores(s)
	}
	one := [1]*Sample{s}
	return m.DeltaScoresBatchCtx(c, one[:]).Data
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx on the int8 path.
//
//mpgraph:noalloc
func (m *QAMMADelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.qcore.modA.encodeFeaturesBatchCtx(c, addrFeatureTensorBatchCtx(c, m.cfg, ss, t), len(ss))
	encB := m.qcore.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return tensor.SigmoidInPlace(c, m.qhead.ForwardCtx(c, m.qcore.forwardBatchCtx(c, encA, encB, ss)))
}

// Freeze locks the calibrated activation scales.
func (m *QAMMADelta) Freeze() {
	m.qcore.freeze()
	m.qhead.Freeze()
}

// QAMMAPage is the int8 mirror of AMMAPage.
type QAMMAPage struct {
	*AMMAPage
	qcore *qAMMACore
	qhead *nn.QMLP
}

// NewQAMMAPage quantizes m's weights; the mirror starts in calibration mode.
func NewQAMMAPage(m *AMMAPage) *QAMMAPage {
	return &QAMMAPage{AMMAPage: m, qcore: quantizeAMMACore(m.core), qhead: nn.NewQMLP(m.head)}
}

// TopPagesAppendCtx implements PageTopperCtx on the int8 path.
//
//mpgraph:noalloc
func (m *QAMMAPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one, out := [1]*Sample{s}, [1][]uint64{dst}
	m.TopPagesBatchAppendCtx(c, one[:], k, out[:])
	return out[0]
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx on the int8 path.
//
//mpgraph:noalloc
func (m *QAMMAPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	scores := m.qhead.ForwardCtx(c, m.qcore.pooledTokensBatchCtx(c, m.pages, m.pcs, ss))
	topPagesBatchAppend(c, m.pages, scores, k, dst)
}

// Freeze locks the calibrated activation scales.
func (m *QAMMAPage) Freeze() {
	m.qcore.freeze()
	m.qhead.Freeze()
}

// QBinaryPage is the int8 mirror of the binary-encoded compressed page
// predictor — the §6.1 configuration the int8 engine exists for: compressed
// storage AND integer inference speed. The backbone runs int8; the head
// stays float (see binaryTopPagesOne).
type QBinaryPage struct {
	*BinaryPage
	qcore *qAMMACore
}

// NewQBinaryPage quantizes m's backbone weights; the mirror starts in
// calibration mode.
func NewQBinaryPage(m *BinaryPage) *QBinaryPage {
	return &QBinaryPage{BinaryPage: m, qcore: quantizeAMMACore(m.core)}
}

// TopPagesAppendCtx implements PageTopperCtx on the int8 path, using the
// same bit-flip candidate decode as the float model.
//
//mpgraph:noalloc
func (m *QBinaryPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	one := [1]*Sample{s}
	return m.binaryTopPagesOne(c, m.qcore.pooledTokensBatchCtx(c, m.pages, m.pcs, one[:]), k, dst)
}

// Freeze locks the calibrated activation scales.
func (m *QBinaryPage) Freeze() {
	m.qcore.freeze()
}

// --- calibration and suite quantization ---

// runDeltaCalibration forwards up to calibLimit samples through the mirror
// in calibration mode, then freezes it.
func runDeltaCalibration(q DeltaScorerCtx, freeze func(), samples []*Sample) {
	ctx := tensor.NewCtx()
	for i, s := range samples {
		if i == calibLimit {
			break
		}
		q.DeltaScoresCtx(ctx, s)
		ctx.Reset()
	}
	freeze()
}

// runPageCalibration is runDeltaCalibration for page mirrors.
func runPageCalibration(q PageTopperCtx, freeze func(), samples []*Sample) {
	ctx := tensor.NewCtx()
	var dst [1]uint64
	for i, s := range samples {
		if i == calibLimit {
			break
		}
		q.TopPagesAppendCtx(ctx, s, 1, dst[:0])
		ctx.Reset()
	}
	freeze()
}

// phaseSamples selects the calibration samples a phase-specific sub-model
// will actually see at inference (s.Phase mod the model count maps to it),
// falling back to the full set when the phase never occurs.
func phaseSamples(samples []*Sample, phase, nphases int) []*Sample {
	var out []*Sample
	for _, s := range samples {
		if s.Phase%nphases == phase {
			out = append(out, s)
			if len(out) == calibLimit {
				break
			}
		}
	}
	if len(out) == 0 {
		return samples
	}
	return out
}

// QuantizeDelta returns an int8 mirror of a trained delta model, calibrated
// on the given samples. AMMADelta and PhaseSpecificDelta (of AMMADeltas)
// are supported; anything else is an explicit error so callers cannot
// silently keep running float.
func QuantizeDelta(m DeltaModel, calib []*Sample) (DeltaModel, error) {
	switch t := m.(type) {
	case *AMMADelta:
		q := NewQAMMADelta(t)
		runDeltaCalibration(q, q.Freeze, calib)
		return q, nil
	case *PhaseSpecificDelta:
		out := &PhaseSpecificDelta{Models: make([]DeltaModel, len(t.Models))}
		for p, sub := range t.Models {
			qsub, err := QuantizeDelta(sub, phaseSamples(calib, p, len(t.Models)))
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = qsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no int8 mirror for delta model %T", m)
	}
}

// QuantizePage returns an int8 mirror of a trained page model, calibrated
// on the given samples. AMMAPage, BinaryPage and PhaseSpecificPage are
// supported.
func QuantizePage(m PageModel, calib []*Sample) (PageModel, error) {
	switch t := m.(type) {
	case *AMMAPage:
		q := NewQAMMAPage(t)
		runPageCalibration(q, q.Freeze, calib)
		return q, nil
	case *BinaryPage:
		q := NewQBinaryPage(t)
		runPageCalibration(q, q.Freeze, calib)
		return q, nil
	case *PhaseSpecificPage:
		out := &PhaseSpecificPage{Models: make([]PageModel, len(t.Models))}
		for p, sub := range t.Models {
			qsub, err := QuantizePage(sub, phaseSamples(calib, p, len(t.Models)))
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = qsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no int8 mirror for page model %T", m)
	}
}

// QuantizeSuite quantizes a delta/page model pair with one calibration
// sample set — the wiring the experiments pipeline uses under Options.Int8.
func QuantizeSuite(delta DeltaModel, page PageModel, calib []*Sample) (DeltaModel, PageModel, error) {
	qd, err := QuantizeDelta(delta, calib)
	if err != nil {
		return nil, nil, err
	}
	qp, err := QuantizePage(page, calib)
	if err != nil {
		return nil, nil, err
	}
	return qd, qp, nil
}

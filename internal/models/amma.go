package models

import (
	"math"
	"math/rand"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// DeltaModel is a spatial predictor: multi-label classification over block
// deltas within a page-sized range (Section 4.3.3).
type DeltaModel interface {
	nn.Module
	// DeltaLoss is the BCE training loss for s.
	DeltaLoss(s *Sample) *tensor.Tensor
	// DeltaScoresCtx returns per-class probabilities (sigmoid outputs) for
	// s. On a live ctx they are arena-backed, valid until the ctx is reset;
	// a nil ctx runs the autograd forward (float64 models only).
	DeltaScoresCtx(c *tensor.Ctx, s *Sample) []float64
}

// PageModel is a temporal predictor of the next new page (Section 4.3.4).
type PageModel interface {
	nn.Module
	// PageLoss is the CE training loss for s.
	PageLoss(s *Sample) *tensor.Tensor
	// TopPagesAppendCtx appends the k most likely next pages for s
	// (known-vocabulary values only) to dst and returns it, so callers can
	// reuse one result buffer across calls. A nil ctx runs the autograd
	// forward (float64 models only).
	TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64
}

// PageProber is implemented by page models that can expose a full
// probability row over the page vocabulary (needed as the teacher side of
// knowledge distillation).
type PageProber interface {
	PageProbs(s *Sample) []float64
}

// modalityEncoder embeds one input modality and applies the per-modality
// self-attention layer of the AMMA figure: embed → +position → attention.
// Like the nn layers it is written once over the element type: float64 is
// the trained model, float32 its narrowed inference mirror (f32.go).
type modalityEncoder[T float32 | float64] struct {
	lin   *nn.LinearOf[T]    // feature inputs (address segments); nil if token
	table *nn.EmbeddingOf[T] // token inputs (pages, PCs); nil if feature
	pos   *tensor.Dense[T]
	attn  *nn.SelfAttentionOf[T]
}

func newFeatureEncoder(inDim, T, attnDim int, rng *rand.Rand) *modalityEncoder[float64] {
	return &modalityEncoder[float64]{
		lin:  nn.NewLinear(inDim, attnDim, rng),
		pos:  tensor.Randn(T, attnDim, 0.05, rng).Param(),
		attn: nn.NewSelfAttention(attnDim, attnDim, rng),
	}
}

func newTokenEncoder(vocab, T, attnDim int, rng *rand.Rand) *modalityEncoder[float64] {
	return &modalityEncoder[float64]{
		table: nn.NewEmbedding(vocab, attnDim, rng),
		pos:   tensor.Randn(T, attnDim, 0.05, rng).Param(),
		attn:  nn.NewSelfAttention(attnDim, attnDim, rng),
	}
}

func (m *modalityEncoder[T]) params() []*tensor.Dense[T] {
	out := []*tensor.Dense[T]{m.pos}
	if m.lin != nil {
		out = append(out, m.lin.Params()...)
	}
	if m.table != nil {
		out = append(out, m.table.Params()...)
	}
	return append(out, m.attn.Params()...)
}

// ammaCore is the shared AMMA backbone: two modality encoders, the
// multi-modality attention fusion layer (Eq. 8), L Transformer layers
// (Eq. 9-10), optional phase embedding (AMMA-PI), and mean pooling.
type ammaCore[T float32 | float64] struct {
	modA, modB *modalityEncoder[T]
	fusion     *nn.MMAFOf[T]
	trans      []*nn.TransformerLayerOf[T]
	phaseEmb   *nn.EmbeddingOf[T] // nil unless phase-informed
}

func newAMMACore(cfg Config, modA, modB *modalityEncoder[float64], phases int, rng *rand.Rand) *ammaCore[float64] {
	c := &ammaCore[float64]{
		modA:   modA,
		modB:   modB,
		fusion: nn.NewMMAF(cfg.AttnDim, cfg.FusionDim, rng),
	}
	for l := 0; l < cfg.TransLayers; l++ {
		c.trans = append(c.trans, nn.NewTransformerLayer(cfg.FusionDim, cfg.Heads, rng))
	}
	if phases > 0 {
		c.phaseEmb = nn.NewEmbedding(phases, cfg.FusionDim, rng)
	}
	return c
}

func (c *ammaCore[T]) params() []*tensor.Dense[T] {
	out := append(c.modA.params(), c.modB.params()...)
	out = append(out, c.fusion.Params()...)
	for _, tl := range c.trans {
		out = append(out, tl.Params()...)
	}
	if c.phaseEmb != nil {
		out = append(out, c.phaseEmb.Params()...)
	}
	return out
}

// AMMADelta is the spatial delta predictor (Fig. 7a): address-segmentation
// modality + PC modality → AMMA → MLP head → sigmoid multi-label bitmap.
type AMMADelta struct {
	cfg  Config
	pcs  *Vocab
	core *ammaCore[float64]
	head *nn.MLP
}

// NewAMMADelta builds the delta predictor. phases > 0 selects the
// phase-informed variant (AMMA-PI); 0 is plain AMMA.
func NewAMMADelta(cfg Config, pcs *Vocab, phases int, seed int64) *AMMADelta {
	rng := rand.New(rand.NewSource(seed))
	modA := newFeatureEncoder(cfg.NumSegments, cfg.HistoryT, cfg.AttnDim, rng)
	modB := newTokenEncoder(cfg.PCVocab, cfg.HistoryT, cfg.AttnDim, rng)
	return &AMMADelta{
		cfg:  cfg,
		pcs:  pcs,
		core: newAMMACore(cfg, modA, modB, phases, rng),
		head: nn.NewMLP([]int{cfg.FusionDim, cfg.DeltaClasses()}, rng),
	}
}

// DeltaLogits is the autograd forward of s: the stacked forward on a nil
// ctx with a one-sample batch.
func (m *AMMADelta) DeltaLogits(s *Sample) *tensor.Tensor {
	return ammaDeltaLogits(nil, m, m.core, m.head, []*Sample{s})
}

// DeltaLoss implements DeltaModel.
func (m *AMMADelta) DeltaLoss(s *Sample) *tensor.Tensor {
	return tensor.BCEWithLogits(m.DeltaLogits(s), s.DeltaBits)
}

// Params implements nn.Module.
func (m *AMMADelta) Params() []*tensor.Tensor {
	return append(m.core.params(), m.head.Params()...)
}

// AMMAPage is the temporal page predictor (Fig. 7b): tokenized page modality
// + PC modality → AMMA → MLP head → softmax over the page vocabulary.
type AMMAPage struct {
	cfg   Config
	pages *Vocab
	pcs   *Vocab
	core  *ammaCore[float64]
	head  *nn.MLP
}

// NewAMMAPage builds the page predictor (phases > 0 → AMMA-PI).
func NewAMMAPage(cfg Config, pages, pcs *Vocab, phases int, seed int64) *AMMAPage {
	rng := rand.New(rand.NewSource(seed))
	modA := newTokenEncoder(cfg.PageVocab, cfg.HistoryT, cfg.AttnDim, rng)
	modB := newTokenEncoder(cfg.PCVocab, cfg.HistoryT, cfg.AttnDim, rng)
	return &AMMAPage{
		cfg:   cfg,
		pages: pages,
		pcs:   pcs,
		core:  newAMMACore(cfg, modA, modB, phases, rng),
		head:  nn.NewMLP([]int{cfg.FusionDim, cfg.PageVocab}, rng),
	}
}

// PageLogits is the autograd forward of s: the stacked forward on a nil ctx
// with a one-sample batch.
func (m *AMMAPage) PageLogits(s *Sample) *tensor.Tensor {
	return m.logitsBatchCtx(nil, []*Sample{s})
}

// PageLoss implements PageModel.
func (m *AMMAPage) PageLoss(s *Sample) *tensor.Tensor {
	return tensor.CrossEntropyLogits(m.PageLogits(s), s.PageTok)
}

// PageProbs implements PageProber (the KD teacher interface).
func (m *AMMAPage) PageProbs(s *Sample) []float64 {
	return softmaxSlice(m.PageLogits(s).Data)
}

// Params implements nn.Module.
func (m *AMMAPage) Params() []*tensor.Tensor {
	return append(m.core.params(), m.head.Params()...)
}

func softmaxSlice(logits []float64) []float64 {
	out := make([]float64, len(logits))
	maxV := logits[0]
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - maxV)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

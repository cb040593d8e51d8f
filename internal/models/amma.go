package models

import (
	"math/rand"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// DeltaModel is a spatial predictor: multi-label classification over block
// deltas within a page-sized range (Section 4.3.3).
type DeltaModel interface {
	nn.Module
	// DeltaLoss is the BCE training loss for s.
	DeltaLoss(s *Sample) *tensor.Tensor
	// DeltaScores returns per-class probabilities (sigmoid outputs).
	DeltaScores(s *Sample) []float64
}

// PageModel is a temporal predictor of the next new page (Section 4.3.4).
type PageModel interface {
	nn.Module
	// PageLoss is the CE training loss for s.
	PageLoss(s *Sample) *tensor.Tensor
	// TopPages returns the k most likely next pages (known-vocabulary
	// values only).
	TopPages(s *Sample, k int) []uint64
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

// The autograd forward below — training, and the oracle the fast-path tests
// compare against — exists at float64 only, so it is written as functions
// over the float64 instantiation. The inference forward, written once for
// both float tiers, is in fastpath_batch.go.

func encodeFeatures(m *modalityEncoder[float64], x *tensor.Tensor) *tensor.Tensor {
	return m.attn.Forward(tensor.Add(m.lin.Forward(x), m.pos))
}

func encodeTokens(m *modalityEncoder[float64], ids []int) *tensor.Tensor {
	return m.attn.Forward(tensor.Add(m.table.Forward(ids), m.pos))
}

// coreForward fuses the two encoded modalities and pools to [1 x FusionDim].
func coreForward(c *ammaCore[float64], encA, encB *tensor.Tensor, phase int) *tensor.Tensor {
	fused := c.fusion.Forward(encA, encB)
	if c.phaseEmb != nil {
		// Phase embedding incorporated as side information after the
		// fusion of the two modalities (AMMA-PI, Section 5.3.1).
		p := phase % c.phaseEmb.Vocab()
		fused = tensor.AddBias(fused, c.phaseEmb.Forward([]int{p}))
	}
	for _, tl := range c.trans {
		fused = tl.Forward(fused)
	}
	return tensor.MeanRows(fused)
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

func (m *AMMADelta) logits(s *Sample) *tensor.Tensor {
	encA := encodeFeatures(m.core.modA, AddrFeatureTensor(m.cfg, s.Blocks))
	encB := encodeTokens(m.core.modB, pcTokens(m.pcs, s.PCs))
	return m.head.Forward(coreForward(m.core, encA, encB, s.Phase))
}

// DeltaLoss implements DeltaModel.
func (m *AMMADelta) DeltaLoss(s *Sample) *tensor.Tensor {
	return tensor.BCEWithLogits(m.logits(s), s.DeltaBits)
}

// DeltaScores implements DeltaModel.
func (m *AMMADelta) DeltaScores(s *Sample) []float64 {
	return sigmoidSlice(m.logits(s).Data)
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

func (m *AMMAPage) logits(s *Sample) *tensor.Tensor {
	encA := encodeTokens(m.core.modA, pageTokens(m.pages, s.Blocks))
	encB := encodeTokens(m.core.modB, pcTokens(m.pcs, s.PCs))
	return m.head.Forward(coreForward(m.core, encA, encB, s.Phase))
}

// PageLoss implements PageModel.
func (m *AMMAPage) PageLoss(s *Sample) *tensor.Tensor {
	return tensor.CrossEntropyLogits(m.logits(s), s.PageTok)
}

// TopPages implements PageModel.
func (m *AMMAPage) TopPages(s *Sample, k int) []uint64 {
	return topPagesFromScores(m.pages, m.logits(s).Data, k)
}

// PageProbs implements PageProber (the KD teacher interface).
func (m *AMMAPage) PageProbs(s *Sample) []float64 {
	return softmaxSlice(m.logits(s).Data)
}

// Params implements nn.Module.
func (m *AMMAPage) Params() []*tensor.Tensor {
	return append(m.core.params(), m.head.Params()...)
}

// --- shared encoding helpers ---

func pcTokens(v *Vocab, pcs []uint64) []int {
	out := make([]int, len(pcs))
	for i, pc := range pcs {
		out[i] = v.Token(pc)
	}
	return out
}

func pageTokens(v *Vocab, blocks []uint64) []int {
	out := make([]int, len(blocks))
	for i, b := range blocks {
		out[i] = v.Token(trace.PageOfBlock(b))
	}
	return out
}

func sigmoidSlice(logits []float64) []float64 {
	out := make([]float64, len(logits))
	for i, z := range logits {
		out[i] = 1 / (1 + exp(-z))
	}
	return out
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
		out[i] = exp(v - maxV)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// topPagesFromScores maps the best-scoring known tokens back to page values.
func topPagesFromScores(pages *Vocab, scores []float64, k int) []uint64 {
	var out []uint64
	for _, tok := range TopKClasses(scores, k+1) {
		if page, ok := pages.Value(tok); ok {
			out = append(out, page)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

package models

import (
	"math/rand"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// hashPC folds a PC into a [0,1) feature, the "hashed and normalized"
// encoding the paper uses where the PC is side information.
//
//mpgraph:noalloc
func hashPC(pc uint64) float64 {
	pc ^= pc >> 33
	pc *= 0xff51afd7ed558ccd
	pc ^= pc >> 33
	return float64(pc%4096) / 4096
}

// LSTMDelta is the Delta-LSTM-style baseline for spatial prediction
// (Hashemi et al. 2018): concatenated address+PC steps through an LSTM.
type LSTMDelta struct {
	cfg  Config
	lstm *nn.LSTM
	head *nn.MLP
}

// NewLSTMDelta builds the baseline with cfg.LSTMHidden units.
func NewLSTMDelta(cfg Config, seed int64) *LSTMDelta {
	rng := rand.New(rand.NewSource(seed))
	return &LSTMDelta{
		cfg:  cfg,
		lstm: nn.NewLSTM(cfg.NumSegments+1, cfg.LSTMHidden, rng),
		head: nn.NewMLP([]int{cfg.LSTMHidden, cfg.DeltaClasses()}, rng),
	}
}

// DeltaLoss implements DeltaModel.
func (m *LSTMDelta) DeltaLoss(s *Sample) *tensor.Tensor {
	return tensor.BCEWithLogits(lstmDeltaLogits(nil, m, m.lstm, m.head, []*Sample{s}), s.DeltaBits)
}

// Params implements nn.Module.
func (m *LSTMDelta) Params() []*tensor.Tensor { return append(m.lstm.Params(), m.head.Params()...) }

// LSTMPage is the LSTM baseline for temporal page prediction: embedded page
// tokens concatenated with embedded PC tokens per step.
type LSTMPage struct {
	cfg     Config
	pages   *Vocab
	pcs     *Vocab
	pageEmb *nn.Embedding
	pcEmb   *nn.Embedding
	lstm    *nn.LSTM
	head    *nn.MLP
}

// NewLSTMPage builds the baseline page predictor.
func NewLSTMPage(cfg Config, pages, pcs *Vocab, seed int64) *LSTMPage {
	rng := rand.New(rand.NewSource(seed))
	pageDim, pcDim := 24, 8
	return &LSTMPage{
		cfg:     cfg,
		pages:   pages,
		pcs:     pcs,
		pageEmb: nn.NewEmbedding(cfg.PageVocab, pageDim, rng),
		pcEmb:   nn.NewEmbedding(cfg.PCVocab, pcDim, rng),
		lstm:    nn.NewLSTM(pageDim+pcDim, cfg.LSTMHidden, rng),
		head:    nn.NewMLP([]int{cfg.LSTMHidden, cfg.PageVocab}, rng),
	}
}

// PageLoss implements PageModel.
func (m *LSTMPage) PageLoss(s *Sample) *tensor.Tensor {
	return tensor.CrossEntropyLogits(m.logitsBatchCtx(nil, []*Sample{s}), s.PageTok)
}

// PageProbs implements PageProber.
func (m *LSTMPage) PageProbs(s *Sample) []float64 {
	return softmaxSlice(m.logitsBatchCtx(nil, []*Sample{s}).Data)
}

// Params implements nn.Module.
func (m *LSTMPage) Params() []*tensor.Tensor {
	out := append(m.pageEmb.Params(), m.pcEmb.Params()...)
	out = append(out, m.lstm.Params()...)
	return append(out, m.head.Params()...)
}

// AttnDelta is the vanilla-attention baseline (TransFetch-style): address
// input with PC as side information through stacked Transformer layers —
// single modality, no fusion layer.
type AttnDelta struct {
	cfg   Config
	embed *nn.Linear
	pos   *tensor.Tensor
	trans []*nn.TransformerLayer
	head  *nn.MLP
}

// NewAttnDelta builds the baseline with 2 Transformer layers of FusionDim.
func NewAttnDelta(cfg Config, seed int64) *AttnDelta {
	rng := rand.New(rand.NewSource(seed))
	m := &AttnDelta{
		cfg:   cfg,
		embed: nn.NewLinear(cfg.NumSegments+1, cfg.FusionDim, rng),
		pos:   tensor.Randn(cfg.HistoryT, cfg.FusionDim, 0.05, rng).Param(),
		head:  nn.NewMLP([]int{cfg.FusionDim, cfg.DeltaClasses()}, rng),
	}
	for l := 0; l < 2; l++ {
		m.trans = append(m.trans, nn.NewTransformerLayer(cfg.FusionDim, cfg.Heads, rng))
	}
	return m
}

// DeltaLoss implements DeltaModel.
func (m *AttnDelta) DeltaLoss(s *Sample) *tensor.Tensor {
	return tensor.BCEWithLogits(m.logitsBatchCtx(nil, []*Sample{s}), s.DeltaBits)
}

// Params implements nn.Module.
func (m *AttnDelta) Params() []*tensor.Tensor {
	out := append(m.embed.Params(), m.pos)
	for _, tl := range m.trans {
		out = append(out, tl.Params()...)
	}
	return append(out, m.head.Params()...)
}

// AttnPage is the vanilla-attention page baseline: embedded page tokens with
// the hashed PC appended as a side-information feature column.
type AttnPage struct {
	cfg     Config
	pages   *Vocab
	pcs     *Vocab
	pageEmb *nn.Embedding
	mix     *nn.Linear
	pos     *tensor.Tensor
	trans   []*nn.TransformerLayer
	head    *nn.MLP
}

// NewAttnPage builds the baseline page predictor.
func NewAttnPage(cfg Config, pages, pcs *Vocab, seed int64) *AttnPage {
	rng := rand.New(rand.NewSource(seed))
	pageDim := 24
	m := &AttnPage{
		cfg:     cfg,
		pages:   pages,
		pcs:     pcs,
		pageEmb: nn.NewEmbedding(cfg.PageVocab, pageDim, rng),
		mix:     nn.NewLinear(pageDim+1, cfg.FusionDim, rng),
		pos:     tensor.Randn(cfg.HistoryT, cfg.FusionDim, 0.05, rng).Param(),
		head:    nn.NewMLP([]int{cfg.FusionDim, cfg.PageVocab}, rng),
	}
	for l := 0; l < 2; l++ {
		m.trans = append(m.trans, nn.NewTransformerLayer(cfg.FusionDim, cfg.Heads, rng))
	}
	return m
}

// PageLoss implements PageModel.
func (m *AttnPage) PageLoss(s *Sample) *tensor.Tensor {
	return tensor.CrossEntropyLogits(m.logitsBatchCtx(nil, []*Sample{s}), s.PageTok)
}

// PageProbs implements PageProber.
func (m *AttnPage) PageProbs(s *Sample) []float64 {
	return softmaxSlice(m.logitsBatchCtx(nil, []*Sample{s}).Data)
}

// Params implements nn.Module.
func (m *AttnPage) Params() []*tensor.Tensor {
	out := append(m.pageEmb.Params(), m.mix.Params()...)
	out = append(out, m.pos)
	for _, tl := range m.trans {
		out = append(out, tl.Params()...)
	}
	return append(out, m.head.Params()...)
}

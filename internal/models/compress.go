package models

import (
	"fmt"
	"math"
	"math/rand"

	"mpgraph/internal/invariant"
	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// BinaryPage is the binary-encoding compressed page predictor of Section
// 6.1: instead of a softmax over the page vocabulary, the head emits
// ceil(log2(vocab)) sigmoid bits encoding the class id, collapsing the
// dominant head/embedding cost (2^16 classes → 16 outputs in the paper).
type BinaryPage struct {
	cfg   Config
	pages *Vocab
	pcs   *Vocab
	core  *ammaCore[float64]
	head  *nn.MLP
	bits  int
}

// NewBinaryPage builds the binary-encoded page predictor.
func NewBinaryPage(cfg Config, pages, pcs *Vocab, seed int64) *BinaryPage {
	rng := rand.New(rand.NewSource(seed))
	bits := 1
	for 1<<bits < cfg.PageVocab {
		bits++
	}
	modA := newTokenEncoder(cfg.PageVocab, cfg.HistoryT, cfg.AttnDim, rng)
	modB := newTokenEncoder(cfg.PCVocab, cfg.HistoryT, cfg.AttnDim, rng)
	return &BinaryPage{
		cfg:   cfg,
		pages: pages,
		pcs:   pcs,
		core:  newAMMACore(cfg, modA, modB, 0, rng),
		head:  nn.NewMLP([]int{cfg.FusionDim, bits}, rng),
		bits:  bits,
	}
}

// Bits is the binary code width.
func (m *BinaryPage) Bits() int { return m.bits }

// PageLogits returns the bit logits (1 x bits): the stacked backbone on a
// nil ctx with a one-sample batch, then the head.
func (m *BinaryPage) PageLogits(s *Sample) *tensor.Tensor {
	return m.head.ForwardCtx(nil, m.core.pooledTokensBatchCtx(nil, m.pages, m.pcs, []*Sample{s}))
}

// PageLoss implements PageModel: BCE against the label's binary code.
func (m *BinaryPage) PageLoss(s *Sample) *tensor.Tensor {
	var code [64]float64
	return tensor.BCEWithLogits(m.PageLogits(s), m.labelCode(code[:0], s))
}

// labelCode appends the binary code of s's label, the hard target of both
// BinaryPage losses, to dst: a caller's stack buffer, since the loss node
// keeps its own copy of its targets.
func (m *BinaryPage) labelCode(dst []float64, s *Sample) []float64 {
	code, err := appendBinaryCode(dst, s.PageTok, m.bits)
	invariant.OnErr(err) // bits covers PageVocab by construction
	return code
}

// Params implements nn.Module.
func (m *BinaryPage) Params() []*tensor.Tensor {
	return append(m.core.params(), m.head.Params()...)
}

// PageLogiter exposes raw logits for distillation.
type PageLogiter interface {
	PageLogits(s *Sample) *tensor.Tensor
}

// DeltaLogiter exposes raw delta logits for distillation.
type DeltaLogiter interface {
	DeltaLogits(s *Sample) *tensor.Tensor
}

// Knowledge distillation (Section 6.1) weights the soft (teacher) loss by
// distillAlpha against the hard (label) loss, and softens teacher and
// student page distributions by distillTemperature. distillAlpha is typed so
// that 1-distillAlpha is the float64 difference, not the exact 0.3.
const (
	distillAlpha       float64 = 0.7
	distillTemperature         = 2
)

// distillLoss mixes a soft and a hard loss by distillAlpha.
func distillLoss(soft, hard *tensor.Tensor) *tensor.Tensor {
	return tensor.Add(tensor.Scale(soft, distillAlpha), tensor.Scale(hard, 1-distillAlpha))
}

// DistillDelta trains a smaller student delta model against a teacher: the
// soft loss is BCE against the teacher's sigmoid outputs, mixed with the
// hard label loss.
func DistillDelta(student DeltaModel, teacher DeltaModel, ds *Dataset, opt TrainOptions) error {
	loss, err := distillDeltaLoss(student, teacher, ds)
	if err != nil {
		return err
	}
	return trainLoop(student, ds, opt, allPhases, loss)
}

// distillDeltaLoss is DistillDelta's per-sample loss, over teacher targets
// scored once up front.
func distillDeltaLoss(student DeltaModel, teacher DeltaModel, ds *Dataset) (lossFunc, error) {
	sl, ok := student.(DeltaLogiter)
	if !ok {
		return nil, fmt.Errorf("models: student %T does not expose delta logits", student)
	}
	// Teacher targets are inference-only: precompute outside the tape.
	soft := make([][]float64, len(ds.Samples))
	restore := tensor.SetGradEnabled(false)
	for i, s := range ds.Samples {
		soft[i] = teacher.DeltaScoresCtx(nil, s)
	}
	tensor.SetGradEnabled(restore)
	idxOf := sampleIndex(ds)
	return func(s *Sample) *tensor.Tensor {
		logits := sl.DeltaLogits(s)
		i := idxOf[s]
		softLoss := tensor.BCEWithLogits(logits, soft[i])
		hardLoss := tensor.BCEWithLogits(logits, s.DeltaBits)
		return distillLoss(softLoss, hardLoss)
	}, nil
}

// DistillPage trains a student page model from a teacher's softmax
// distribution. A softmax student (PageLogiter with vocab-wide output) uses
// tempered soft cross entropy; a BinaryPage student distils the expected bit
// probabilities implied by the teacher distribution.
func DistillPage(student PageModel, teacher PageProber, ds *Dataset, opt TrainOptions) error {
	loss, err := distillPageLoss(student, teacher, ds)
	if err != nil {
		return err
	}
	return trainLoop(student, ds, opt, allPhases, loss)
}

// distillPageLoss is DistillPage's per-sample loss, over teacher targets
// computed once up front.
func distillPageLoss(student PageModel, teacher PageProber, ds *Dataset) (lossFunc, error) {
	soft := make([][]float64, len(ds.Samples))
	restore := tensor.SetGradEnabled(false)
	for i, s := range ds.Samples {
		soft[i] = teacher.PageProbs(s)
	}
	tensor.SetGradEnabled(restore)
	idxOf := sampleIndex(ds)

	if bp, ok := student.(*BinaryPage); ok {
		// Teacher class distribution → per-bit marginal probabilities.
		bitTargets := make([][]float64, len(soft))
		for i, probs := range soft {
			bt := make([]float64, bp.bits)
			for id, p := range probs {
				for b := 0; b < bp.bits; b++ {
					if id&(1<<b) != 0 {
						bt[b] += p
					}
				}
			}
			bitTargets[i] = bt
		}
		return func(s *Sample) *tensor.Tensor {
			logits := bp.PageLogits(s)
			i := idxOf[s]
			softLoss := tensor.BCEWithLogits(logits, bitTargets[i])
			var code [64]float64
			hardLoss := tensor.BCEWithLogits(logits, bp.labelCode(code[:0], s))
			return distillLoss(softLoss, hardLoss)
		}, nil
	}

	sl, ok := student.(PageLogiter)
	if !ok {
		return nil, fmt.Errorf("models: student %T does not expose page logits", student)
	}
	return func(s *Sample) *tensor.Tensor {
		logits := sl.PageLogits(s)
		i := idxOf[s]
		softLoss := tensor.SoftCrossEntropy(logits, soft[i], distillTemperature)
		hardLoss := tensor.CrossEntropyLogits(logits, s.PageTok)
		return distillLoss(softLoss, hardLoss)
	}, nil
}

func sampleIndex(ds *Dataset) map[*Sample]int {
	m := make(map[*Sample]int, len(ds.Samples))
	for i, s := range ds.Samples {
		m[s] = i
	}
	return m
}

// Complexity is the Table 8 accounting for one prediction model.
type Complexity struct {
	Params int
	// OPs is the multiply-accumulate count of one inference, in millions.
	OPs float64
	// CriticalPath is the Eq. 12 fully-parallel latency estimate in cycles.
	CriticalPath int
	// CriticalPathClass is O(l) for attention models, O(nl) for recurrent.
	CriticalPathClass string
}

// tmm is the fully-parallel matrix-multiply latency of Eq. 12: a tree
// reduction over dimension D plus the multiply stage.
func tmm(d int) int { return 1 + int(math.Ceil(math.Log2(float64(d)))) }

// AMMAComplexity evaluates Eq. 12 and the analytic MAC count for an AMMA
// model with the given config and output width.
func AMMAComplexity(cfg Config, m nn.Module, outDim int) Complexity {
	T := cfg.HistoryT
	seq := 2 * T // fused sequence length
	// MACs: modality encoders (projections + attention scores), fusion,
	// transformer layers, head.
	enc := 2 * (3*T*cfg.AttnDim*cfg.AttnDim + 2*T*T*cfg.AttnDim)
	fusion := 3*seq*cfg.AttnDim*cfg.FusionDim + 2*seq*seq*cfg.FusionDim
	trans := cfg.TransLayers * (4*seq*cfg.FusionDim*cfg.FusionDim +
		2*seq*seq*cfg.FusionDim + 4*seq*cfg.FusionDim*cfg.FusionDim)
	head := cfg.FusionDim * outDim
	macs := enc + fusion + trans + head

	tav := 1
	temb := tmm(cfg.AttnDim) + tav
	tatt := 4*tmm(cfg.AttnDim) + 3*tav
	tfusion := 4*tmm(cfg.FusionDim) + 3*tav + tmm(cfg.FusionDim) + 4*tav
	ttrans := tfusion
	thash := 1
	thead := tmm(cfg.FusionDim)
	critical := temb + tatt + tfusion + cfg.TransLayers*ttrans + thash + thead + tav

	return Complexity{
		Params:            nn.CountParams(m),
		OPs:               float64(macs) / 1e6,
		CriticalPath:      critical,
		CriticalPathClass: "O(l)",
	}
}

// LSTMComplexity estimates the recurrent baselines: the critical path grows
// with sequence length (O(nl)).
func LSTMComplexity(cfg Config, m nn.Module, inDim, outDim int) Complexity {
	T := cfg.HistoryT
	perStep := 4 * (inDim*cfg.LSTMHidden + cfg.LSTMHidden*cfg.LSTMHidden)
	macs := T*perStep + cfg.LSTMHidden*outDim
	critical := T*(tmm(cfg.LSTMHidden)+4) + tmm(cfg.LSTMHidden)
	return Complexity{
		Params:            nn.CountParams(m),
		OPs:               float64(macs) / 1e6,
		CriticalPath:      critical,
		CriticalPathClass: "O(nl)",
	}
}

package models

import (
	"fmt"
	"math/rand"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// TrainOptions tunes the offline training loop (Section 4.3.1: models train
// on the first-iteration trace, then deploy for inference).
type TrainOptions struct {
	// Epochs over the dataset (default 3).
	Epochs int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// Seed drives shuffling.
	Seed int64
	// MaxSamplesPerEpoch caps each epoch (0 = all).
	MaxSamplesPerEpoch int
	// Hook, when set, runs at the start of every epoch and aborts training
	// when it errors. The experiment pipeline uses it as the train-epoch
	// fault-injection point.
	Hook func(epoch int) error
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 3
	}
	if o.LR == 0 {
		o.LR = 1e-3
	}
	return o
}

// TrainDelta fits a delta model. For PhaseSpecificDelta the per-sample
// dispatch means each phase model sees exactly its own phase's samples.
func TrainDelta(m DeltaModel, ds *Dataset, opt TrainOptions) error {
	return trainLoop(m, ds, opt, func(s *Sample) *tensor.Tensor { return m.DeltaLoss(s) })
}

// TrainPage fits a page model.
func TrainPage(m PageModel, ds *Dataset, opt TrainOptions) error {
	return trainLoop(m, ds, opt, func(s *Sample) *tensor.Tensor { return m.PageLoss(s) })
}

// trainer is one model's training state: its parameters, their optimizer
// and the tape (tensor/tape.go) every step's graph is drawn from. Each
// trainer owns its tape, so trainers of different models share nothing they
// write and may run side by side.
type trainer struct {
	params []*tensor.Tensor
	adam   *nn.Adam
	tape   *tensor.Tape
}

// newTrainer puts m's parameters on a fresh tape; the caller defers the
// tape's Release.
func newTrainer(m nn.Module, lr float64) *trainer {
	params := m.Params()
	return &trainer{params: params, adam: nn.NewAdam(lr), tape: tensor.NewTape(params)}
}

// step is one training step on loss. The tape is rewound last: Backward and
// Adam are done with the step's graph, and the parameter gradients — heap
// memory, not the tape's — are already zero for the next step.
func (t *trainer) step(loss *tensor.Tensor) error {
	if err := loss.Backward(); err != nil {
		return err
	}
	t.adam.Step(t.params)
	nn.ZeroParamGrads(t.params)
	t.tape.Reset()
	return nil
}

// trainLoop is the only training loop in the tree: suite training,
// distillation and snapshot training all run it.
func trainLoop(m nn.Module, ds *Dataset, opt TrainOptions, lossFn func(*Sample) *tensor.Tensor) error {
	opt = opt.withDefaults()
	if len(ds.Samples) == 0 {
		return fmt.Errorf("models: empty dataset")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	tr := newTrainer(m, opt.LR)
	defer tr.tape.Release()
	order := make([]int, len(ds.Samples))
	for i := range order {
		order[i] = i
	}
	for ep := 0; ep < opt.Epochs; ep++ {
		if opt.Hook != nil {
			if err := opt.Hook(ep); err != nil {
				return fmt.Errorf("models: epoch %d aborted: %w", ep, err)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		n := len(order)
		if opt.MaxSamplesPerEpoch > 0 && opt.MaxSamplesPerEpoch < n {
			n = opt.MaxSamplesPerEpoch
		}
		for _, idx := range order[:n] {
			if err := tr.step(lossFn(ds.Samples[idx])); err != nil {
				return err
			}
		}
	}
	return nil
}

// EvalDeltaF1 computes the micro-averaged F1 of 0.5-thresholded sigmoid
// outputs against the delta bitmaps — the Table 6 metric.
func EvalDeltaF1(m DeltaModel, samples []*Sample, maxSamples int) float64 {
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	var tp, fp, fn float64
	n := len(samples)
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	for _, s := range samples[:n] {
		scores := m.DeltaScores(s)
		for cls, p := range scores {
			pred := p >= 0.5
			truth := s.DeltaBits[cls] >= 0.5
			switch {
			case pred && truth:
				tp++
			case pred && !truth:
				fp++
			case !pred && truth:
				fn++
			}
		}
	}
	if 2*tp+fp+fn == 0 {
		return 0
	}
	return 2 * tp / (2*tp + fp + fn)
}

// EvalPageAccAtK computes accuracy@k (Hashemi et al.): the top-1 predicted
// page is correct when it occurs within the next k accesses — the Table 7
// metric with k=10.
func EvalPageAccAtK(m PageModel, samples []*Sample, k, maxSamples int) float64 {
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	n := len(samples)
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	if n == 0 {
		return 0
	}
	hits := 0
	for _, s := range samples[:n] {
		top := m.TopPages(s, 1)
		if len(top) == 0 {
			continue
		}
		limit := k
		if limit > len(s.FuturePages) {
			limit = len(s.FuturePages)
		}
		for _, fut := range s.FuturePages[:limit] {
			if fut == top[0] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(n)
}

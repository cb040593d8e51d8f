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
	// Hook, when set, runs at the start of every epoch (in the first job
	// only, of a model DeltaJobs splits) and aborts training when it errors. The experiment pipeline uses it as the train-epoch
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

// TrainDelta fits a delta model: DeltaJobs, run one after another.
func TrainDelta(m DeltaModel, ds *Dataset, opt TrainOptions) error {
	return runJobs(DeltaJobs(m, ds, opt))
}

// TrainPage fits a page model: PageJobs, run one after another.
func TrainPage(m PageModel, ds *Dataset, opt TrainOptions) error {
	return runJobs(PageJobs(m, ds, opt))
}

// DeltaJobs splits TrainDelta(m, ds, opt) into independent jobs: one per
// phase for a PhaseSpecificDelta, one for any other model. The jobs share no
// parameter, tape or optimizer, so they may run in any order or side by
// side, and together they leave m with the single loop's bits (phaseJobs).
// Only the first job runs opt.Hook.
func DeltaJobs(m DeltaModel, ds *Dataset, opt TrainOptions) []func() error {
	if ps, ok := m.(*PhaseSpecificDelta); ok && len(ps.Models) > 0 {
		return phaseJobs(ps.Models, ds, opt, func(sub DeltaModel) lossFunc { return sub.DeltaLoss })
	}
	return []func() error{func() error { return trainLoop(m, ds, opt, allPhases, m.DeltaLoss) }}
}

// PageJobs is DeltaJobs for a page model: one job per phase for a
// PhaseSpecificPage, one for any other model.
func PageJobs(m PageModel, ds *Dataset, opt TrainOptions) []func() error {
	if ps, ok := m.(*PhaseSpecificPage); ok && len(ps.Models) > 0 {
		return phaseJobs(ps.Models, ds, opt, func(sub PageModel) lossFunc { return sub.PageLoss })
	}
	return []func() error{func() error { return trainLoop(m, ds, opt, allPhases, m.PageLoss) }}
}

func runJobs(jobs []func() error) error {
	for _, job := range jobs {
		if err := job(); err != nil {
			return err
		}
	}
	return nil
}

type lossFunc = func(*Sample) *tensor.Tensor

// phaseJobs is one trainLoop per phase model of a phase-specific wrapper,
// each replaying the wrapper's whole schedule. The single loop's step on a
// phase-p sample builds its graph through subs[p] alone, so every other
// phase model's gradient is exactly +0: the clip norm adds only +0 terms,
// and Adam, elementwise on the global step count, moves each other model as
// StepZeroGrads does. Job p therefore steps on its own phase's samples and
// takes a zero-gradient step on every other sample.
func phaseJobs[M nn.Module](subs []M, ds *Dataset, opt TrainOptions, loss func(M) lossFunc) []func() error {
	jobs := make([]func() error, len(subs))
	for p, sub := range subs {
		o := opt
		if p > 0 {
			o.Hook = nil
		}
		own := phaseFilter{phase: p, phases: len(subs)}
		jobs[p] = func() error { return trainLoop(sub, ds, o, own, loss(sub)) }
	}
	return jobs
}

// phaseFilter picks the samples a training loop steps on: those a
// phase-specific wrapper of phases models dispatches to model phase, or
// every sample when phases is 0.
type phaseFilter struct{ phase, phases int }

// allPhases steps on every sample: a whole model in one loop.
var allPhases = phaseFilter{}

func (f phaseFilter) owns(s *Sample) bool {
	return f.phases == 0 || phaseIndex(s.Phase, f.phases) == f.phase
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
// distillation and snapshot training all run it. It replays the whole
// shuffled schedule and steps on the samples own picks; any other sample
// costs a zero-gradient Adam step and nothing else.
func trainLoop(m nn.Module, ds *Dataset, opt TrainOptions, own phaseFilter, lossFn lossFunc) error {
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
			s := ds.Samples[idx]
			if !own.owns(s) {
				tr.adam.StepZeroGrads(tr.params)
				continue
			}
			if err := tr.step(lossFn(s)); err != nil {
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
		scores := m.DeltaScoresCtx(nil, s)
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
		top := m.TopPagesAppendCtx(nil, s, 1, nil)
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

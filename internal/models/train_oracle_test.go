package models

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// referenceTrain is the training loop as it was before steps ran on a tape,
// kept verbatim as the oracle: loss, Backward, Adam step, zero the gradients,
// every tensor of every step allocated on the heap.
func referenceTrain(m nn.Module, ds *Dataset, opt TrainOptions, lossFn func(*Sample) *tensor.Tensor) error {
	opt = opt.withDefaults()
	if len(ds.Samples) == 0 {
		return fmt.Errorf("models: empty dataset")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	adam := nn.NewAdam(opt.LR)
	params := m.Params()
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
			loss := lossFn(ds.Samples[idx])
			if err := loss.Backward(); err != nil {
				return err
			}
			adam.Step(params)
			nn.ZeroParamGrads(params)
		}
	}
	return nil
}

// requireSameBits fails unless got holds want's parameter bits.
func requireSameBits(t *testing.T, name string, got, want nn.Module) {
	t.Helper()
	wp := want.Params()
	gp := got.Params()
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d parameters, want %d", name, len(gp), len(wp))
	}
	for pi, p := range gp {
		for i, v := range p.Data {
			if math.Float64bits(v) != math.Float64bits(wp[pi].Data[i]) {
				t.Fatalf("%s: param %d elem %d is %x (%g), want %x (%g)", name, pi, i,
					math.Float64bits(v), v, math.Float64bits(wp[pi].Data[i]), wp[pi].Data[i])
			}
		}
	}
}

// TestTrainMatchesReference holds TrainDelta, TrainPage and distillation to
// referenceTrain: the same parameter bits, model by model, for all five model
// families of a suite (LSTM, attention, AMMA, AMMA-PI and the AMMA-PS wrappers,
// delta and page) and one distilled student, on the native and on the portable
// kernels. Two epochs, so a gradient left behind by the first would show in
// the second; clipping fires on some steps.
func TestTrainMatchesReference(t *testing.T) {
	ds := synthDataset(t, 1500, 12)
	phases := ds.NumPhases()
	opt := TrainOptions{Epochs: 2, LR: 2e-3, Seed: 9, MaxSamplesPerEpoch: 12}

	deltas := map[string]func() DeltaModel{
		"lstm-delta": func() DeltaModel { return NewLSTMDelta(ds.Cfg, 5) },
		"attn-delta": func() DeltaModel { return NewAttnDelta(ds.Cfg, 6) },
		"amma-delta": func() DeltaModel { return NewAMMADelta(ds.Cfg, ds.PCs, 0, 3) },
		"pi-delta":   func() DeltaModel { return NewAMMADelta(ds.Cfg, ds.PCs, phases, 4) },
		"ps-delta":   func() DeltaModel { return NewPhaseSpecificDelta(ds.Cfg, ds.PCs, phases, 8) },
	}
	pages := map[string]func() PageModel{
		"lstm-page": func() PageModel { return NewLSTMPage(ds.Cfg, ds.Pages, ds.PCs, 15) },
		"attn-page": func() PageModel { return NewAttnPage(ds.Cfg, ds.Pages, ds.PCs, 16) },
		"amma-page": func() PageModel { return NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 7) },
		"pi-page":   func() PageModel { return NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, phases, 14) },
		"ps-page":   func() PageModel { return NewPhaseSpecificPage(ds.Cfg, ds.Pages, ds.PCs, phases, 11) },
	}

	run := func(t *testing.T) {
		for name, build := range deltas {
			got, want := build(), build()
			if err := TrainDelta(got, ds, opt); err != nil {
				t.Fatal(err)
			}
			if err := referenceTrain(want, ds, opt, want.DeltaLoss); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, name, got, want)
		}
		for name, build := range pages {
			got, want := build(), build()
			if err := TrainPage(got, ds, opt); err != nil {
				t.Fatal(err)
			}
			if err := referenceTrain(want, ds, opt, want.PageLoss); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, name, got, want)
		}

		// One distilled student: DistillDelta's loss (soft BCE against the
		// teacher's scores mixed with the hard BCE), on the reference loop.
		teacher := deltas["amma-delta"]()
		if err := referenceTrain(teacher, ds, opt, teacher.DeltaLoss); err != nil {
			t.Fatal(err)
		}
		small := ds.Cfg
		small.AttnDim, small.FusionDim, small.Heads = 8, 16, 2
		// (A slice of the samples: distillation scores the teacher on all of them.)
		dsSmall := &Dataset{Cfg: small, Samples: ds.Samples[:64], Pages: ds.Pages, PCs: ds.PCs}
		got, want := NewAMMADelta(small, ds.PCs, 0, 67), NewAMMADelta(small, ds.PCs, 0, 67)
		if err := DistillDelta(got, teacher, dsSmall, opt); err != nil {
			t.Fatal(err)
		}
		soft := map[*Sample][]float64{}
		for _, s := range dsSmall.Samples {
			soft[s] = teacher.DeltaScoresCtx(nil, s)
		}
		err := referenceTrain(want, dsSmall, opt.withDefaults(), func(s *Sample) *tensor.Tensor {
			logits := want.DeltaLogits(s)
			softLoss := tensor.BCEWithLogits(logits, soft[s])
			hardLoss := tensor.BCEWithLogits(logits, s.DeltaBits)
			return tensor.Add(tensor.Scale(softLoss, distillAlpha), tensor.Scale(hardLoss, 1-distillAlpha))
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "distilled-delta", got, want)
	}

	t.Run("native", run)
	t.Run("portable", func(t *testing.T) {
		defer tensor.ForcePortableKernels()()
		run(t)
	})
}

// TestTrainReleasesParameters: a training run that ends in an error, or in a
// panic out of the loss function, still takes the model off its tape — the
// next run would fail tensor.NewTape's one-owner invariant otherwise — and
// the weights it leaves behind are the reference loop's. A phase-specific
// model's phase jobs release their tapes on both paths too, and only the
// first job runs the hook.
func TestTrainReleasesParameters(t *testing.T) {
	ds := synthDataset(t, 1500, 12)
	opt := TrainOptions{Epochs: 2, LR: 2e-3, Seed: 9, MaxSamplesPerEpoch: 8}
	got, want := NewAMMADelta(ds.Cfg, ds.PCs, 0, 3), NewAMMADelta(ds.Cfg, ds.PCs, 0, 3)

	// An epoch of steps, then the hook fails the second epoch.
	boom := errors.New("boom")
	failing := opt
	failing.Hook = func(ep int) error {
		if ep == 1 {
			return boom
		}
		return nil
	}
	if err := TrainDelta(got, ds, failing); !errors.Is(err, boom) {
		t.Fatalf("TrainDelta = %v, want the hook's error", err)
	}
	if err := referenceTrain(want, ds, failing, want.DeltaLoss); !errors.Is(err, boom) {
		t.Fatal(err)
	}

	// Three steps, then the loss function panics.
	panicking := func(m *AMMADelta) func(*Sample) *tensor.Tensor {
		calls := 0
		return func(s *Sample) *tensor.Tensor {
			if calls++; calls == 4 {
				panic("loss function exploded")
			}
			return m.DeltaLoss(s)
		}
	}
	loop := func(m nn.Module, ds *Dataset, opt TrainOptions, lossFn lossFunc) error {
		return trainLoop(m, ds, opt, allPhases, lossFn)
	}
	for _, run := range []struct {
		m    *AMMADelta
		loop func(nn.Module, *Dataset, TrainOptions, lossFunc) error
	}{{got, loop}, {want, referenceTrain}} {
		func() {
			defer func() {
				if v := recover(); v != "loss function exploded" {
					t.Fatalf("recovered %v, want the loss function's panic", v)
				}
			}()
			_ = run.loop(run.m, ds, opt, panicking(run.m))
		}()
	}

	if err := TrainDelta(got, ds, opt); err != nil {
		t.Fatal(err)
	}
	if err := referenceTrain(want, ds, opt, want.DeltaLoss); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "after an error and a panic", got, want)

	// A phase-specific model's jobs: the hook fails phase 0's second epoch,
	// then phase 1's loss function panics. Each job's tape is released, and
	// the hook ran in phase 0's job alone, once per epoch.
	hits := 0
	counting := failing
	counting.Hook = func(ep int) error {
		hits++
		return failing.Hook(ep)
	}
	ps := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, 3, 8)
	if err := TrainDelta(ps, ds, counting); !errors.Is(err, boom) || hits != 2 {
		t.Fatalf("TrainDelta = %v after %d hook calls, want the hook's error at the second", err, hits)
	}
	requireOffTapes(t, "after a phase job's error", ps)
	ps.Models[1] = &panickyDelta{AMMADelta: ps.Models[1].(*AMMADelta)}
	func() {
		defer func() {
			if v := recover(); v != "loss function exploded" {
				t.Fatalf("recovered %v, want the loss function's panic", v)
			}
		}()
		_ = runJobs(DeltaJobs(ps, ds, opt))
	}()
	requireOffTapes(t, "after a phase job's panic", ps)
	hits = 0
	counting.Hook = func(int) error { hits++; return nil }
	if err := TrainDelta(NewPhaseSpecificDelta(ds.Cfg, ds.PCs, 3, 8), ds, counting); err != nil || hits != opt.Epochs {
		t.Fatalf("TrainDelta = %v with %d hook calls, want nil and one per epoch (%d)", err, hits, opt.Epochs)
	}
}

// panickyDelta is an AMMA delta model whose loss function panics on its
// first call.
type panickyDelta struct{ *AMMADelta }

func (*panickyDelta) DeltaLoss(*Sample) *tensor.Tensor { panic("loss function exploded") }

// requireOffTapes fails unless every parameter of m is off its tape.
func requireOffTapes(t *testing.T, name string, m nn.Module) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("%s: %v", name, v)
		}
	}()
	tensor.NewTape(m.Params()).Release()
}

// TestPhaseJobsMatchReference holds a phase-specific model's per-phase jobs
// to referenceTrain's single loop: the same parameter bits whether the jobs
// run in order, in reverse, or side by side on two goroutines, for AMMA-PS
// delta and page, on the native and on the portable kernels. P = 3 over
// phase labels 0–5 (a label dispatches modulo P), and no sample of phase
// model 2 in epoch 0, so its parameters keep a nil Grad through an epoch of
// zero-gradient steps.
func TestPhaseJobsMatchReference(t *testing.T) {
	const P = 3
	opt := TrainOptions{Epochs: 3, LR: 2e-3, Seed: 9, MaxSamplesPerEpoch: 12}
	ds := phaseLabelled(t, synthDataset(t, 1500, 12), 48, P, opt)

	runs := map[string]func([]func() error) error{
		"in order": runJobs,
		"reversed": func(jobs []func() error) error {
			reversed := slices.Clone(jobs)
			slices.Reverse(reversed)
			return runJobs(reversed)
		},
		"two goroutines": func(jobs []func() error) error {
			errs := make([]error, len(jobs))
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; i < len(jobs); i += 2 {
						errs[i] = jobs[i]()
					}
				}()
			}
			wg.Wait()
			return errors.Join(errs...)
		},
	}
	run := func(t *testing.T) {
		want := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, P, 8)
		if err := referenceTrain(want, ds, opt, want.DeltaLoss); err != nil {
			t.Fatal(err)
		}
		wantPage := NewPhaseSpecificPage(ds.Cfg, ds.Pages, ds.PCs, P, 11)
		if err := referenceTrain(wantPage, ds, opt, wantPage.PageLoss); err != nil {
			t.Fatal(err)
		}
		for name, runAll := range runs {
			got := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, P, 8)
			jobs := DeltaJobs(got, ds, opt)
			if len(jobs) != P {
				t.Fatalf("%d delta jobs, want %d", len(jobs), P)
			}
			if err := runAll(jobs); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "ps-delta "+name, got, want)

			gotPage := NewPhaseSpecificPage(ds.Cfg, ds.Pages, ds.PCs, P, 11)
			if err := runAll(PageJobs(gotPage, ds, opt)); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "ps-page "+name, gotPage, wantPage)
		}
	}
	t.Run("native", run)
	t.Run("portable", func(t *testing.T) {
		defer tensor.ForcePortableKernels()()
		run(t)
	})
}

// phaseLabelled copies the first n samples of ds and relabels their phases
// over 0..2P-1 so that no sample of epoch 0's schedule under opt
// dispatches to phase model P-1, while some of every later epoch's does.
func phaseLabelled(t *testing.T, ds *Dataset, n, P int, opt TrainOptions) *Dataset {
	t.Helper()
	samples := make([]*Sample, n)
	for i, s := range ds.Samples[:n] {
		c := *s
		c.Phase = i % (2 * P)
		samples[i] = &c
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for ep := 0; ep < opt.Epochs; ep++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		last := 0
		for _, idx := range order[:opt.MaxSamplesPerEpoch] {
			s := samples[idx]
			if ep == 0 && s.Phase%P == P-1 {
				s.Phase -= 1 + idx%(P-1) // to a model below P-1, in the same label band
			}
			if s.Phase%P == P-1 {
				last++
			}
		}
		if ep > 0 && last == 0 {
			t.Fatalf("epoch %d has no sample of phase model %d", ep, P-1)
		}
	}
	return &Dataset{Cfg: ds.Cfg, Samples: samples, Pages: ds.Pages, PCs: ds.PCs}
}

// TestTrainStepZeroAlloc: after one warm-up step (which grows the tape and
// allocates the parameter gradients and Adam's moments) a train step
// allocates nothing, for every model kind the suite and Fig. 13 train: the
// tape holds the whole step graph, inputs included. The phase job alternates
// a full step on its own phase with the zero-gradient step of another's.
func TestTrainStepZeroAlloc(t *testing.T) {
	ds := synthDataset(t, 1500, 12)
	phases := ds.NumPhases()
	small := ds.Cfg
	small.AttnDim, small.FusionDim, small.Heads = 8, 16, 2
	dsSmall := &Dataset{Cfg: small, Samples: ds.Samples[:64], Pages: ds.Pages, PCs: ds.PCs}
	ammaPage := NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 7)

	type job struct {
		m    nn.Module
		loss lossFunc
	}
	jobs := map[string]func() job{
		"amma-delta": func() job { m := NewAMMADelta(ds.Cfg, ds.PCs, 0, 3); return job{m, m.DeltaLoss} },
		"pi-delta":   func() job { m := NewAMMADelta(ds.Cfg, ds.PCs, phases, 4); return job{m, m.DeltaLoss} },
		"amma-page":  func() job { return job{ammaPage, ammaPage.PageLoss} },
		"pi-page":    func() job { m := NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, phases, 14); return job{m, m.PageLoss} },
		"lstm-delta": func() job { m := NewLSTMDelta(ds.Cfg, 5); return job{m, m.DeltaLoss} },
		"lstm-page":  func() job { m := NewLSTMPage(ds.Cfg, ds.Pages, ds.PCs, 15); return job{m, m.PageLoss} },
		"attn-delta": func() job { m := NewAttnDelta(ds.Cfg, 6); return job{m, m.DeltaLoss} },
		"attn-page":  func() job { m := NewAttnPage(ds.Cfg, ds.Pages, ds.PCs, 16); return job{m, m.PageLoss} },
		"distilled-delta": func() job {
			m := NewAMMADelta(small, ds.PCs, 0, 67)
			loss, err := distillDeltaLoss(m, NewAMMADelta(ds.Cfg, ds.PCs, 0, 3), dsSmall)
			if err != nil {
				t.Fatal(err)
			}
			return job{m, loss}
		},
		"distilled-softmax-page": func() job {
			m := NewAMMAPage(small, ds.Pages, ds.PCs, 0, 68)
			loss, err := distillPageLoss(m, ammaPage, dsSmall)
			if err != nil {
				t.Fatal(err)
			}
			return job{m, loss}
		},
		"distilled-binary-page": func() job {
			m := NewBinaryPage(small, ds.Pages, ds.PCs, 69)
			loss, err := distillPageLoss(m, ammaPage, dsSmall)
			if err != nil {
				t.Fatal(err)
			}
			return job{m, loss}
		},
	}
	samples := dsSmall.Samples
	for name, build := range jobs {
		j := build()
		tr := newTrainer(j.m, 1e-3)
		i := 0
		step := func() {
			if err := tr.step(j.loss(samples[i%len(samples)])); err != nil {
				t.Fatal(err)
			}
			i++
		}
		step()
		if allocs := testing.AllocsPerRun(8, step); allocs != 0 {
			t.Errorf("%s: a warm train step allocates %.0f times, want 0", name, allocs)
		}
		tr.release()
	}

	ps := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, phases, 8)
	sub := ps.Models[0]
	var own, other []*Sample
	for _, s := range ds.Samples {
		if phaseIndex(s.Phase, phases) == 0 {
			own = append(own, s)
		} else {
			other = append(other, s)
		}
	}
	if len(own) == 0 || len(other) == 0 {
		t.Fatalf("vacuous: %d samples of phase 0, %d of others", len(own), len(other))
	}
	tr := newTrainer(sub, 1e-3)
	defer tr.release()
	i := 0
	step := func() {
		if err := tr.step(sub.DeltaLoss(own[i%len(own)])); err != nil {
			t.Fatal(err)
		}
		tr.adam.StepZeroGrads(tr.params)
		i++
	}
	step()
	if allocs := testing.AllocsPerRun(8, step); allocs != 0 {
		t.Errorf("phase job: a warm step and a zero-gradient step allocate %.0f times, want 0", allocs)
	}
}

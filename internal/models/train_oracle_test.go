package models

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
		dopt := DistillOptions{TrainOptions: opt}
		if err := DistillDelta(got, teacher, dsSmall, dopt); err != nil {
			t.Fatal(err)
		}
		dopt = dopt.withDefaults()
		soft := map[*Sample][]float64{}
		for _, s := range dsSmall.Samples {
			soft[s] = teacher.DeltaScores(s)
		}
		err := referenceTrain(want, dsSmall, dopt.TrainOptions, func(s *Sample) *tensor.Tensor {
			logits := want.DeltaLogits(s)
			softLoss := tensor.BCEWithLogits(logits, soft[s])
			hardLoss := tensor.BCEWithLogits(logits, s.DeltaBits)
			return tensor.Add(tensor.Scale(softLoss, dopt.Alpha), tensor.Scale(hardLoss, 1-dopt.Alpha))
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
// the weights it leaves behind are the reference loop's.
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
	for _, run := range []struct {
		m    *AMMADelta
		loop func(nn.Module, *Dataset, TrainOptions, func(*Sample) *tensor.Tensor) error
	}{{got, trainLoop}, {want, referenceTrain}} {
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
}

// TestTrainStepAllocBudget: one AMMA train step on a warm tape allocates
// under 64 KB — graph headers, parent slices, closures and the sample's
// feature tensors — where the heap-allocated step was 477 KB, almost all of
// it zeroed Data and Grad slices.
func TestTrainStepAllocBudget(t *testing.T) {
	ds := synthDataset(t, 1500, 12)
	m := NewAMMADelta(ds.Cfg, ds.PCs, 0, 3)
	tr := newTrainer(m, 1e-3)
	defer tr.tape.Release()
	step := func(i int) {
		if err := tr.step(m.DeltaLoss(ds.Samples[i%len(ds.Samples)])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step(i) // grow the tape, allocate parameter gradients and Adam moments
	}
	const steps = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	if perStep := (after.TotalAlloc - before.TotalAlloc) / steps; perStep > 64<<10 {
		t.Fatalf("a train step allocates %d bytes, budget 64 KB", perStep)
	}
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/nn"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// compressedSuite holds one compression level's trained student models.
type compressedSuite struct {
	name       string
	cfg        models.Config
	deltas     []models.DeltaModel
	pages      []models.PageModel
	params     int
	ratio      float64
	deltaF1    float64
	pageAcc    float64
	distilled  bool
	quantBytes int
	f16Bytes   int
}

// buildCompressed trains per-phase students at the given width divisor,
// with or without knowledge distillation from the suite's AMMA-PS teachers,
// applies 8-bit quantization, and evaluates prediction quality.
func buildCompressed(r *Runner, wl Workload, divisor int, distill bool) (*compressedSuite, error) {
	s, err := r.Suite(wl)
	if err != nil {
		return nil, err
	}
	small := s.Cfg
	small.AttnDim = max(4, s.Cfg.AttnDim/divisor)
	small.FusionDim = max(4, s.Cfg.FusionDim/divisor)
	small.Heads = 2
	if small.FusionDim%small.Heads != 0 {
		small.Heads = 1
	}

	dsTrain := &models.Dataset{Cfg: small, Samples: s.Train.Samples, Pages: s.Train.Pages, PCs: s.Train.PCs}
	dsTest := &models.Dataset{Cfg: small, Samples: s.Test.Samples, Pages: s.Test.Pages, PCs: s.Test.PCs}
	topt := models.TrainOptions{Epochs: r.Opt.Epochs, Seed: r.Opt.Seed + 100, MaxSamplesPerEpoch: r.Opt.TrainSamples}
	dopt := models.DistillOptions{TrainOptions: topt}

	cs := &compressedSuite{cfg: small, distilled: distill}
	totalParams := 0
	for p := 0; p < s.NumPhases; p++ {
		dsPhaseTrain := dsTrain.FilterPhase(p)
		if len(dsPhaseTrain.Samples) == 0 {
			dsPhaseTrain = dsTrain
		}
		delta := models.NewAMMADelta(small, s.Train.PCs, 0, r.Opt.Seed+int64(200+p))
		page := models.NewBinaryPage(small, s.Train.Pages, s.Train.PCs, r.Opt.Seed+int64(300+p))
		if distill {
			if err := models.DistillDelta(delta, s.PSDelta.Models[p], dsPhaseTrain, dopt); err != nil {
				return nil, err
			}
			teacher, ok := s.PSPage.Models[p].(models.PageProber)
			if !ok {
				return nil, fmt.Errorf("experiments: phase teacher lacks PageProbs")
			}
			if err := models.DistillPage(page, teacher, dsPhaseTrain, dopt); err != nil {
				return nil, err
			}
		} else {
			if err := models.TrainDelta(delta, dsPhaseTrain, topt); err != nil {
				return nil, err
			}
			if err := models.TrainPage(page, dsPhaseTrain, topt); err != nil {
				return nil, err
			}
		}
		// 8-bit quantization (Section 6.1) on top of the width reduction.
		if _, err := nn.Quantize(delta, 8); err != nil {
			return nil, err
		}
		if _, err := nn.Quantize(page, 8); err != nil {
			return nil, err
		}
		totalParams += nn.CountParams(delta) + nn.CountParams(page)
		cs.quantBytes += nn.StorageBytes(delta, 8) + nn.StorageBytes(page, 8)
		cs.f16Bytes += nn.StorageBytes(delta, 16) + nn.StorageBytes(page, 16)
		cs.deltas = append(cs.deltas, delta)
		cs.pages = append(cs.pages, page)
	}
	cs.params = totalParams
	teacherParams := nn.CountParams(s.PSDelta) + nn.CountParams(s.PSPage)
	cs.ratio = float64(teacherParams) / float64(totalParams)
	cs.name = fmt.Sprintf("%.1fx", cs.ratio)
	cs.deltaF1 = models.EvalDeltaF1(&models.PhaseSpecificDelta{Models: cs.deltas}, dsTest.Samples, r.Opt.EvalSamples)
	cs.pageAcc = models.EvalPageAccAtK(&models.PhaseSpecificPage{Models: cs.pages}, dsTest.Samples, 10, r.Opt.EvalSamples)
	return cs, nil
}

func (cs *compressedSuite) prefetcher(r *Runner, historyT int, latency uint64) (*core.MPGraph, error) {
	opt := core.DefaultOptions()
	opt.LatencyCycles = latency
	det := phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: r.Opt.Seed})
	return core.New(opt, historyT, det, cs.deltas, cs.pages)
}

// f32Suite returns a single-precision copy of the compressed suite: the
// per-phase students narrowed to the f32 compute tier. Quality columns are
// not re-evaluated — the f32 rows measure speed and end-to-end IPC on the f32
// kernels (parity is pinned in the models tests).
func (cs *compressedSuite) f32Suite() (*compressedSuite, error) {
	fd, fp, err := models.ConvertSuiteF32(
		&models.PhaseSpecificDelta{Models: cs.deltas},
		&models.PhaseSpecificPage{Models: cs.pages})
	if err != nil {
		return nil, err
	}
	out := *cs
	out.deltas = fd.(*models.PhaseSpecificDelta).Models
	out.pages = fp.(*models.PhaseSpecificPage).Models
	return &out, nil
}

// int8Suite returns an 8-bit-weight copy of the compressed suite: the
// per-phase students' weights rounded per channel onto the int8 grid and
// scored on the f32 forward. Prediction-quality columns are not re-evaluated
// (parity with the float students is pinned in the models package tests) —
// the int8 rows measure end-to-end IPC under quantised weights.
func (cs *compressedSuite) int8Suite() (*compressedSuite, error) {
	qd, err := models.QuantizeDelta(&models.PhaseSpecificDelta{Models: cs.deltas})
	if err != nil {
		return nil, err
	}
	qp, err := models.QuantizePage(&models.PhaseSpecificPage{Models: cs.pages})
	if err != nil {
		return nil, err
	}
	out := *cs
	out.deltas = qd.(*models.PhaseSpecificDelta).Models
	out.pages = qp.(*models.PhaseSpecificPage).Models
	return &out, nil
}

// measureOperateNs times steady-state Operate calls over the head of the
// test trace and returns the mean wall-clock ns per call. The reading is
// deliberately wall-clocked and flows into the Fig. 13 table: inference
// speed IS the measurement here, so this one figure sits outside the
// byte-identity replay oracle (every other column stays deterministic).
//
//mpgraph:allow-walltime -- inference latency is the Fig. 13 measurement itself; a mocked clock would measure nothing
func measureOperateNs(pf sim.Prefetcher, accs []trace.Access) float64 {
	const warmup, measured = 256, 2048
	if len(accs) == 0 {
		return 0
	}
	at := func(i int) sim.LLCAccess {
		a := accs[i%len(accs)]
		return sim.LLCAccess{Block: trace.Block(a.Addr), PC: a.PC, Core: a.Core, Phase: a.Phase}
	}
	for i := 0; i < warmup; i++ {
		pf.Operate(at(i))
	}
	start := time.Now()
	for i := 0; i < measured; i++ {
		pf.Operate(at(warmup + i))
	}
	return float64(time.Since(start).Nanoseconds()) / measured
}

// FigureDistillation regenerates Fig. 13: prediction quality and IPC
// improvement of MPGraph under increasing compression, with and without
// knowledge distillation, against the uncompressed teacher and BO.
func FigureDistillation(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	s, err := r.Suite(wl)
	if err != nil {
		return err
	}
	d, err := r.Data(wl)
	if err != nil {
		return err
	}
	section(w, fmt.Sprintf("Figure 13: Knowledge distillation under compression (workload %s)", wl))
	t := &Table{Header: []string{"Models", "Ratio", "Params(K)", "8bitKB", "f16KB", "DeltaF1", "PageAcc@10", "IPCImpv", "ns/op"}}

	// Teacher reference row. Under Options.Int8 (or Options.F32) this is
	// already the reduced-precision teacher — MPGraph converts behind the
	// flag.
	teacherPF, err := r.MPGraph(wl, core.DefaultOptions())
	if err != nil {
		return err
	}
	m, base, err := r.Simulate(wl, teacherPF)
	if err != nil {
		return err
	}
	teacherParams := nn.CountParams(s.PSDelta) + nn.CountParams(s.PSPage)
	teacherF16KB := float64(nn.StorageBytes(s.PSDelta, 16)+nn.StorageBytes(s.PSPage, 16)) / 1024
	teacherLabel := "teacher (AMMA-PS)"
	if r.Opt.Int8 {
		teacherLabel += " int8"
	}
	if r.Opt.F32 {
		teacherLabel += " f32"
	}
	t.Add(teacherLabel, "1.0x", fmt.Sprintf("%.1f", float64(teacherParams)/1000), "-",
		fmt.Sprintf("%.1f", teacherF16KB),
		f4(models.EvalDeltaF1(s.PSDelta, s.Test.Samples, r.Opt.EvalSamples)),
		f4(models.EvalPageAccAtK(s.PSPage, s.Test.Samples, 10, r.Opt.EvalSamples)),
		pct(m.IPCImprovement(base)), d1(measureOperateNs(teacherPF, d.TestRaw)))

	// BO reference row.
	bo := prefetch.NewBO(prefetch.DefaultBOConfig())
	mbo, _, err := r.Simulate(wl, bo)
	if err != nil {
		return err
	}
	t.Add("BO (rule-based)", "-", "-", "-", "-", "-", "-",
		pct(mbo.IPCImprovement(base)), d1(measureOperateNs(bo, d.TestRaw)))

	for _, divisor := range []int{2, 4} {
		for _, distill := range []bool{false, true} {
			cs, err := buildCompressed(r, wl, divisor, distill)
			if err != nil {
				return err
			}
			suites := []*compressedSuite{cs}
			variant := ""
			if r.Opt.Int8 {
				qcs, err := cs.int8Suite()
				if err != nil {
					return err
				}
				suites = append(suites, qcs)
				variant = " int8"
			}
			if r.Opt.F32 {
				fcs, err := cs.f32Suite()
				if err != nil {
					return err
				}
				suites = append(suites, fcs)
				variant = " f32"
			}
			for i, suite := range suites {
				pf, err := suite.prefetcher(r, s.Cfg.HistoryT, 0)
				if err != nil {
					return err
				}
				m, base, err := r.Simulate(wl, pf)
				if err != nil {
					return err
				}
				label := fmt.Sprintf("student /%d", divisor)
				if distill {
					label += " +KD"
				}
				deltaF1, pageAcc := f4(suite.deltaF1), f4(suite.pageAcc)
				if i > 0 {
					// Reduced-precision rows measure speed, not re-derived
					// quality (see int8Suite / f32Suite).
					label += variant
					deltaF1, pageAcc = "-", "-"
				}
				t.Add(label, suite.name, fmt.Sprintf("%.1f", float64(suite.params)/1000),
					fmt.Sprintf("%.1f", float64(suite.quantBytes)/1024),
					fmt.Sprintf("%.1f", float64(suite.f16Bytes)/1024),
					deltaF1, pageAcc, pct(m.IPCImprovement(base)),
					d1(measureOperateNs(pf, d.TestRaw)))
			}
		}
	}
	t.Print(w)
	return nil
}

// d1 formats a measured nanosecond figure with one decimal.
func d1(v float64) string { return fmt.Sprintf("%.1f", v) }

// FigureDistancePrefetch regenerates Fig. 14: the effect of model inference
// latency with and without distance prefetching (models trained with
// future-shifted labels), against BO.
func FigureDistancePrefetch(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	d, err := r.Data(wl)
	if err != nil {
		return err
	}
	s, err := r.Suite(wl)
	if err != nil {
		return err
	}
	section(w, fmt.Sprintf("Figure 14: Distance prefetching vs inference latency (workload %s)", wl))

	// Distance-trained models: labels shifted 16 accesses into the future.
	cfg := s.Cfg
	dsDist, err := models.BuildDataset(cfg, d.LLCTrain, models.DatasetOptions{
		Stride:        maxInt(1, (len(d.LLCTrain)-cfg.HistoryT-cfg.LookForwardF)/(r.Opt.TrainSamples*2)+1),
		MaxSamples:    r.Opt.TrainSamples * 2,
		Pages:         s.Train.Pages,
		PCs:           s.Train.PCs,
		LabelDistance: 16,
	})
	if err != nil {
		return err
	}
	topt := models.TrainOptions{Epochs: r.Opt.Epochs, Seed: r.Opt.Seed + 400, MaxSamplesPerEpoch: r.Opt.TrainSamples}
	distDelta := models.NewPhaseSpecificDelta(cfg, s.Train.PCs, s.NumPhases, r.Opt.Seed+401)
	if err := models.TrainDelta(distDelta, dsDist, topt); err != nil {
		return err
	}
	distPage := models.NewPhaseSpecificPage(cfg, s.Train.Pages, s.Train.PCs, s.NumPhases, r.Opt.Seed+402)
	if err := models.TrainPage(distPage, dsDist, topt); err != nil {
		return err
	}

	build := func(dp bool, latency uint64) (sim.Prefetcher, error) {
		opt := core.DefaultOptions()
		opt.LatencyCycles = latency
		det := phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: r.Opt.Seed})
		if dp {
			return core.New(opt, cfg.HistoryT, det, distDelta.Models, distPage.Models)
		}
		deltas := make([]models.DeltaModel, len(s.PSDelta.Models))
		copy(deltas, s.PSDelta.Models)
		pages := make([]models.PageModel, len(s.PSPage.Models))
		copy(pages, s.PSPage.Models)
		return core.New(opt, cfg.HistoryT, det, deltas, pages)
	}

	t := &Table{Header: []string{"Variant", "Latency", "Accuracy", "Coverage", "IPCImpv"}}
	for _, row := range []struct {
		name    string
		dp      bool
		latency uint64
	}{
		{"MPGraph", false, 0},
		{"MPGraph", false, 200},
		{"MPGraph+DP", true, 0},
		{"MPGraph+DP", true, 200},
	} {
		pf, err := build(row.dp, row.latency)
		if err != nil {
			return err
		}
		m, base, err := r.Simulate(wl, pf)
		if err != nil {
			return err
		}
		t.Add(row.name, d2(row.latency), pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)))
	}
	bo := prefetch.NewBO(prefetch.DefaultBOConfig())
	m, base, err := r.Simulate(wl, bo)
	if err != nil {
		return err
	}
	t.Add("BO", "0", pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)))
	t.Print(w)
	return nil
}

func d2(v uint64) string { return fmt.Sprintf("%d", v) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

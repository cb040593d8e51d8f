package experiments

import (
	"fmt"
	"io"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
)

// prefetchRow is one (workload, prefetcher) simulation outcome.
type prefetchRow struct {
	Workload Workload
	Metrics  sim.Metrics
	Baseline sim.Metrics
}

// runPrefetchSweep simulates all Section 5.4.1 prefetchers over all
// workloads; Figs. 10-12 share one sweep via the Runner cache. Independent
// (workload, prefetcher) simulations fan out across Options.Workers
// goroutines, then the rows are assembled in the serial sweep's exact
// workload-outer / prefetcher-inner order — the printed tables are
// byte-identical at any worker count.
func runPrefetchSweep(r *Runner) (map[string][]prefetchRow, []string, error) {
	r.mu.Lock()
	if r.sweepRows != nil {
		rows, order := r.sweepRows, r.sweepOrder
		r.mu.Unlock()
		return rows, order, nil
	}
	r.mu.Unlock()
	results, order, err := computePrefetchSweep(r)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	r.sweepRows, r.sweepOrder = results, order
	r.mu.Unlock()
	return results, order, nil
}

// BenchSweep recomputes the full prefetcher sweep, bypassing the Runner's
// row cache — the benchmark entry point. Workload traces and trained model
// suites stay cached on r, so repeated calls time only the simulations.
func BenchSweep(r *Runner) error {
	_, _, err := computePrefetchSweep(r) //mpgraph:allow errdrop -- benchmark times the sweep; the rows are the cached-path's concern
	return err
}

// computePrefetchSweep runs the sweep under the bounded scheduler.
func computePrefetchSweep(r *Runner) (map[string][]prefetchRow, []string, error) {
	wls := r.Opt.Workloads()
	workers := r.Opt.workers()

	// Stage 1: per-workload prefetcher sets. Fanning this stage out trains
	// the model suites for distinct workloads concurrently (the Runner's
	// cells coalesce duplicate requests; training never touches the global
	// grad flag, so concurrent suites are independent).
	pfsByWl := make([][]sim.Prefetcher, len(wls))
	err := forEachIndex(len(wls), workers, func(i int) error {
		var err error
		pfsByWl[i], err = r.Prefetchers(wls[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	// Stage 2: one task per (workload, prefetcher) pair. Every simulation
	// owns its prefetcher instance (history, arena, tables are per-instance
	// state), so tasks share only immutable trained weights; each result
	// lands in the slot keyed by its (workload, prefetcher) index.
	type pair struct{ wi, pi int }
	var pairs []pair
	rows := make([][]prefetchRow, len(wls))
	for wi := range wls {
		rows[wi] = make([]prefetchRow, len(pfsByWl[wi]))
		for pi := range pfsByWl[wi] {
			pairs = append(pairs, pair{wi, pi})
		}
	}
	err = forEachIndex(len(pairs), workers, func(i int) error {
		if err := r.Opt.Injector.Fire(resilience.PointSweepWorker); err != nil {
			return err
		}
		p := pairs[i]
		pf := pfsByWl[p.wi][p.pi]
		// Batched inference: register the prefetcher's scheduler session for
		// the duration of its simulation so the flush watermark knows which
		// sessions can still submit. No-op for prefetchers without one.
		if b, ok := pf.(interface {
			JoinBatch()
			LeaveBatch()
		}); ok {
			b.JoinBatch()
			defer b.LeaveBatch()
		}
		m, base, err := r.Simulate(wls[p.wi], pf)
		if err != nil {
			return err
		}
		rows[p.wi][p.pi] = prefetchRow{Workload: wls[p.wi], Metrics: m, Baseline: base}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Assembly replays the serial iteration order exactly: results[name]
	// rows appear in workload order, order lists first-seen names.
	results := map[string][]prefetchRow{}
	var order []string
	for wi := range wls {
		for pi, pf := range pfsByWl[wi] {
			name := pf.Name()
			if _, seen := results[name]; !seen {
				order = append(order, name)
			}
			results[name] = append(results[name], rows[wi][pi])
		}
	}
	return results, order, nil
}

// FigurePrefetchAccuracy regenerates Fig. 10: prefetch accuracy per
// application for every prefetcher.
func FigurePrefetchAccuracy(w io.Writer, r *Runner) error {
	results, order, err := runPrefetchSweep(r)
	if err != nil {
		return err
	}
	section(w, "Figure 10: Prefetch accuracy")
	printPrefetchTable(w, results, order, func(row prefetchRow) float64 {
		return row.Metrics.Accuracy()
	})
	return nil
}

// FigurePrefetchCoverage regenerates Fig. 11: prefetch coverage.
func FigurePrefetchCoverage(w io.Writer, r *Runner) error {
	results, order, err := runPrefetchSweep(r)
	if err != nil {
		return err
	}
	section(w, "Figure 11: Prefetch coverage")
	printPrefetchTable(w, results, order, func(row prefetchRow) float64 {
		return row.Metrics.Coverage()
	})
	return nil
}

// FigureIPC regenerates Fig. 12: IPC improvement over no prefetching, per
// workload and averaged per framework.
func FigureIPC(w io.Writer, r *Runner) error {
	results, order, err := runPrefetchSweep(r)
	if err != nil {
		return err
	}
	section(w, "Figure 12: IPC improvement")
	printPrefetchTable(w, results, order, func(row prefetchRow) float64 {
		return row.Metrics.IPCImprovement(row.Baseline)
	})
	// Per-framework averages (the paper's headline 12.53/21.23/14.57%).
	t := &Table{Header: append([]string{"Framework avg"}, order...)}
	for _, fw := range []string{"gpop", "xstream", "powergraph"} {
		row := []string{fw}
		for _, name := range order {
			var vals []float64
			for _, pr := range results[name] {
				if pr.Workload.Framework == fw {
					vals = append(vals, pr.Metrics.IPCImprovement(pr.Baseline))
				}
			}
			row = append(row, pct(mean(vals)))
		}
		t.Add(row...)
	}
	fmt.Fprintln(w)
	t.Print(w)
	return nil
}

func printPrefetchTable(w io.Writer, results map[string][]prefetchRow, order []string, metric func(prefetchRow) float64) {
	t := &Table{Header: append([]string{"Workload"}, order...)}
	if len(order) == 0 {
		return
	}
	for i, pr := range results[order[0]] {
		row := []string{pr.Workload.String()}
		for _, name := range order {
			row = append(row, pct(metric(results[name][i])))
		}
		t.Add(row...)
	}
	avg := []string{"average"}
	for _, name := range order {
		var vals []float64
		for _, pr := range results[name] {
			vals = append(vals, metric(pr))
		}
		avg = append(avg, pct(mean(vals)))
	}
	t.Add(avg...)
	t.Print(w)
}

// AblationCSTP isolates the chain spatio-temporal strategy (DESIGN.md §5):
// MPGraph with spatial-only prefetching (Dt=0), a deeper spatial-only
// budget, and the full chain, on one representative workload.
func AblationCSTP(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	section(w, fmt.Sprintf("Ablation: CSTP chaining (workload %s)", wl))
	t := &Table{Header: []string{"Variant", "Ds", "Dt", "Accuracy", "Coverage", "IPCImpv"}}
	variants := []struct {
		name   string
		ds, dt int
	}{
		{"spatial-only", 2, 0},
		{"spatial-only-deep", 6, 0},
		{"cstp-shallow", 2, 1},
		{"cstp-full", 2, 2},
	}
	for _, v := range variants {
		opt := core.DefaultOptions()
		opt.SpatialDegree, opt.TemporalDegree = v.ds, v.dt
		pf, err := r.MPGraph(wl, opt)
		if err != nil {
			return err
		}
		m, base, err := r.Simulate(wl, pf)
		if err != nil {
			return err
		}
		t.Add(v.name, d(v.ds), d(v.dt), pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)))
	}
	t.Print(w)
	return nil
}

// AblationPhases isolates the value of phase handling: MPGraph with the
// detector, with oracle phase labels, and locked to a single phase model.
func AblationPhases(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	section(w, fmt.Sprintf("Ablation: phase handling (workload %s)", wl))
	t := &Table{Header: []string{"Variant", "Accuracy", "Coverage", "IPCImpv"}}

	detOpt := core.DefaultOptions()
	pf, err := r.MPGraph(wl, detOpt)
	if err != nil {
		return err
	}
	m, base, err := r.Simulate(wl, pf)
	if err != nil {
		return err
	}
	t.Add("soft-kswin detector", pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)))

	oracleOpt := core.DefaultOptions()
	oracleOpt.OraclePhase = true
	pf, err = r.MPGraph(wl, oracleOpt)
	if err != nil {
		return err
	}
	m, base, err = r.Simulate(wl, pf)
	if err != nil {
		return err
	}
	t.Add("oracle phase", pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)))
	t.Print(w)
	return nil
}

// AblationPerCore compares the shared-detector MPGraph with the per-core
// detector variant (the asynchronous-framework extension from the paper's
// conclusion) on one representative workload.
func AblationPerCore(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	section(w, fmt.Sprintf("Ablation: per-core phase detection (workload %s)", wl))
	s, err := r.Suite(wl)
	if err != nil {
		return err
	}
	t := &Table{Header: []string{"Variant", "Accuracy", "Coverage", "IPCImpv", "Transitions"}}

	shared, err := r.MPGraph(wl, core.DefaultOptions())
	if err != nil {
		return err
	}
	m, base, err := r.Simulate(wl, shared)
	if err != nil {
		return err
	}
	t.Add("shared detector", pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)), d(shared.Transitions))

	deltas := make([]models.DeltaModel, len(s.PSDelta.Models))
	copy(deltas, s.PSDelta.Models)
	pages := make([]models.PageModel, len(s.PSPage.Models))
	copy(pages, s.PSPage.Models)
	seed := r.Opt.Seed
	perCore, err := core.NewPerCore(core.DefaultOptions(), s.Cfg.HistoryT, 4, func() phasedet.Detector {
		seed++
		return phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: seed})
	}, deltas, pages)
	if err != nil {
		return err
	}
	m, base, err = r.Simulate(wl, perCore)
	if err != nil {
		return err
	}
	t.Add("per-core detectors", pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)), d(perCore.Transitions))
	t.Print(w)
	return nil
}

// TableExtendedBaselines goes beyond the paper's comparison set: the other
// rule-based prefetchers its related-work section discusses (VLDP, Domino,
// IMP) plus feedback-directed throttling layered on BO, all on one
// representative workload. Rule-based only, so this table is cheap.
func TableExtendedBaselines(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	section(w, fmt.Sprintf("Extended rule-based baselines (workload %s)", wl))
	t := &Table{Header: []string{"Prefetcher", "Accuracy", "Coverage", "IPCImpv", "Issued"}}
	pfs := []sim.Prefetcher{
		prefetch.NewBO(prefetch.DefaultBOConfig()),
		prefetch.NewISB(prefetch.DefaultISBConfig()),
		prefetch.NewVLDP(prefetch.DefaultVLDPConfig()),
		prefetch.NewDomino(prefetch.DefaultDominoConfig()),
		prefetch.NewIMP(prefetch.DefaultIMPConfig()),
		prefetch.NewSMS(prefetch.DefaultSMSConfig()),
		prefetch.NewMarkov(prefetch.DefaultMarkovConfig()),
		prefetch.NewThrottle(prefetch.NewBO(prefetch.DefaultBOConfig()), prefetch.DefaultThrottleConfig()),
		prefetch.NewEnsemble(prefetch.DefaultEnsembleConfig(),
			prefetch.NewBO(prefetch.DefaultBOConfig()),
			prefetch.NewDomino(prefetch.DefaultDominoConfig()),
			prefetch.NewVLDP(prefetch.DefaultVLDPConfig())),
	}
	for _, pf := range pfs {
		m, base, err := r.Simulate(wl, pf)
		if err != nil {
			return err
		}
		t.Add(pf.Name(), pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base)), d(int(m.PrefetchesIssued)))
	}
	t.Print(w)
	return nil
}

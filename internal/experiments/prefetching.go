package experiments

import (
	"fmt"
	"io"
	"slices"

	"mpgraph/internal/core"
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
// workloads; Figs. 10-12 share one sweep through the Runner's cell, so
// concurrent callers share one run and a failed run is retried. Independent
// (workload, prefetcher) simulations fan out across Options.Workers
// goroutines, then the rows are assembled in the serial sweep's exact
// workload-outer / prefetcher-inner order — the printed tables are
// byte-identical at any worker count.
func runPrefetchSweep(r *Runner) (map[string][]prefetchRow, []string, error) {
	sw, err := r.sweep.get("experiments.PrefetchSweep", func() (*prefetchSweep, error) {
		rows, order, err := computePrefetchSweep(r)
		return &prefetchSweep{rows, order}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return sw.rows, sw.order, nil
}

// prefetchSweep is one sweep's outcome: every prefetcher's rows, one per
// workload, and the prefetcher names in first-seen order.
type prefetchSweep struct {
	rows  map[string][]prefetchRow
	order []string
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

// qualityHeader names the cells of quality.
var qualityHeader = []string{"Accuracy", "Coverage", "IPCImpv"}

// quality is the cells every simulated row reports: prefetch accuracy,
// coverage, and IPC improvement over the no-prefetch baseline.
func quality(m, base sim.Metrics) []string {
	return []string{pct(m.Accuracy()), pct(m.Coverage()), pct(m.IPCImprovement(base))}
}

// variant is one row of a one-workload table: its leading cells and the
// prefetcher it simulates. tail, when set, gives the cells after the quality
// cells from the finished simulation.
type variant struct {
	cells []string
	pf    sim.Prefetcher
	tail  func(sim.Metrics) []string
}

// printVariants prints the table titled title on workload wl: one row per
// variant, its cells, the quality cells of its simulation through
// Runner.Simulate, then its tail. lead and tail name the columns before and
// after the quality columns.
func printVariants(w io.Writer, r *Runner, wl Workload, title string, lead, tail []string, vs []variant) error {
	section(w, fmt.Sprintf("%s (workload %s)", title, wl))
	t := &Table{Header: slices.Concat(lead, qualityHeader, tail)}
	for _, v := range vs {
		m, base, err := r.Simulate(wl, v.pf)
		if err != nil {
			return err
		}
		row := slices.Concat(v.cells, quality(m, base))
		if v.tail != nil {
			row = append(row, v.tail(m)...)
		}
		t.Add(row...)
	}
	t.Print(w)
	return nil
}

// AblationCSTP isolates the chain spatio-temporal strategy (DESIGN.md §5):
// MPGraph with spatial-only prefetching (Dt=0), a deeper spatial-only
// budget, and the full chain, on one representative workload.
func AblationCSTP(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	var vs []variant
	for _, v := range []struct {
		name   string
		ds, dt int
	}{
		{"spatial-only", 2, 0},
		{"spatial-only-deep", 6, 0},
		{"cstp-shallow", 2, 1},
		{"cstp-full", 2, 2},
	} {
		opt := core.DefaultOptions()
		opt.SpatialDegree, opt.TemporalDegree = v.ds, v.dt
		pf, err := r.MPGraph(wl, opt)
		if err != nil {
			return err
		}
		vs = append(vs, variant{cells: []string{v.name, d(v.ds), d(v.dt)}, pf: pf})
	}
	return printVariants(w, r, wl, "Ablation: CSTP chaining", []string{"Variant", "Ds", "Dt"}, nil, vs)
}

// AblationPhases isolates the value of phase handling: MPGraph switched by
// the Soft-KSWIN detector, and by the oracle phase labels. A row locked to a
// single phase model is still missing (ROADMAP: the "Phases" contribution,
// measured in the sweep).
func AblationPhases(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	detected, err := r.MPGraph(wl, core.DefaultOptions())
	if err != nil {
		return err
	}
	oracleOpt := core.DefaultOptions()
	oracleOpt.OraclePhase = true
	oracle, err := r.MPGraph(wl, oracleOpt)
	if err != nil {
		return err
	}
	return printVariants(w, r, wl, "Ablation: phase handling", []string{"Variant"}, nil, []variant{
		{cells: []string{"soft-kswin detector"}, pf: detected},
		{cells: []string{"oracle phase"}, pf: oracle},
	})
}

// AblationPerCore compares the shared-detector MPGraph with the per-core
// detector variant (the asynchronous-framework extension from the paper's
// conclusion) on one representative workload.
func AblationPerCore(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	s, err := r.Suite(wl)
	if err != nil {
		return err
	}
	shared, err := r.MPGraph(wl, core.DefaultOptions())
	if err != nil {
		return err
	}
	seed := r.Opt.Seed
	perCore, err := core.NewPerCore(core.DefaultOptions(), s.Cfg.HistoryT, 4, func() phasedet.Detector {
		seed++
		return phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: seed})
	}, slices.Clone(s.PSDelta.Models), slices.Clone(s.PSPage.Models))
	if err != nil {
		return err
	}
	return printVariants(w, r, wl, "Ablation: per-core phase detection", []string{"Variant"}, []string{"Transitions"}, []variant{
		{[]string{"shared detector"}, shared, func(sim.Metrics) []string { return []string{d(shared.Transitions)} }},
		{[]string{"per-core detectors"}, perCore, func(sim.Metrics) []string { return []string{d(perCore.Transitions)} }},
	})
}

// TableExtendedBaselines goes beyond the paper's comparison set: the other
// rule-based prefetchers its related-work section discusses (VLDP, Domino,
// IMP) plus feedback-directed throttling layered on BO, all on one
// representative workload. Rule-based only, so this table is cheap.
func TableExtendedBaselines(w io.Writer, r *Runner) error {
	var vs []variant
	for _, pf := range []sim.Prefetcher{
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
	} {
		vs = append(vs, variant{[]string{pf.Name()}, pf, func(m sim.Metrics) []string { return []string{d(int(m.PrefetchesIssued))} }})
	}
	return printVariants(w, r, r.Opt.Workloads()[0], "Extended rule-based baselines", []string{"Prefetcher"}, []string{"Issued"}, vs)
}

package main

import (
	"fmt"
	"time"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/graph"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// classicCells are the (framework, application) traces of a sim-classic
// pass: one per framework, covering the three execution models.
var classicCells = []struct {
	framework string
	app       frameworks.App
}{
	{"gpop", frameworks.PR},
	{"xstream", frameworks.BFS},
	{"powergraph", frameworks.CC},
}

// classicPrefetchers builds a fresh set of the no-prefetch baseline and the
// seven classic prefetchers, baseline first.
func classicPrefetchers() []sim.Prefetcher {
	return []sim.Prefetcher{
		sim.NoPrefetcher(),
		prefetch.NewBO(prefetch.DefaultBOConfig()),
		prefetch.NewISB(prefetch.DefaultISBConfig()),
		prefetch.NewSMS(prefetch.DefaultSMSConfig()),
		prefetch.NewVLDP(prefetch.DefaultVLDPConfig()),
		prefetch.NewDomino(prefetch.DefaultDominoConfig()),
		prefetch.NewMarkov(prefetch.DefaultMarkovConfig()),
		prefetch.NewIMP(prefetch.DefaultIMPConfig()),
	}
}

// classicWorkload runs no ML at all: per pass it generates three framework
// traces on a seeded R-MAT graph and simulates each in full under the
// baseline and seven classic prefetchers (24 simulations). Trace generation
// is inside the pass, so the pass also says whether materializing traces
// matters next to simulating them.
type classicWorkload struct {
	g      *graph.Graph
	simCfg sim.Config
	fwOpt  frameworks.Options
}

func (w *classicWorkload) close() {}

// configure sets the simulator and framework options (the small-scale cache
// hierarchy of the experiments, the runner's partition sizing).
func (w *classicWorkload) configure(rc *runCtx) {
	w.simCfg = mlOptions(rc.sc, "f64", 0).SimConfig()
	w.fwOpt = frameworks.Options{
		Cores: 4, MaxIterations: rc.sc.classicIters, Seed: rc.seed,
		PartitionSize: 1 << (rc.sc.classicScale - 3),
	}
}

func (w *classicWorkload) setup(rc *runCtx) error {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(rc.sc.classicScale, rc.seed))
	if err != nil {
		return err
	}
	w.g = g
	w.configure(rc)
	// Warm-up: each framework generates its trace once.
	for _, c := range classicCells {
		if _, err := w.generate(c.framework, c.app); err != nil {
			return err
		}
	}
	return nil
}

func (w *classicWorkload) generate(framework string, app frameworks.App) (*trace.Trace, error) {
	fw, err := frameworks.ByName(framework)
	if err != nil {
		return nil, err
	}
	tr, _, err := fw.Run(w.g, app, w.fwOpt)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", framework, app, err)
	}
	return tr, nil
}

// classicSegment is the number of raw accesses a simulation runs per lap.
const classicSegment = 1 << 18

func (w *classicWorkload) pass(rc *runCtx, tr *tracer) (passResult, error) {
	l := &lane{}
	res := passResult{lanes: []*lane{l}}
	passSpan := tr.start("pass", 0, 0)
	t0 := time.Now()
	l.start()
	for _, c := range classicCells {
		gen := tr.start("frameworks.run", passSpan.id(), 0)
		t, err := w.generate(c.framework, c.app)
		gen.end()
		if err != nil {
			return res, err
		}
		l.lap(-1, nil)
		for _, pf := range classicPrefetchers() {
			var timed *timedPrefetcher
			if tr != nil {
				timed = newTimedPrefetcher(pf)
				pf = timed
			}
			res.attempted++
			sp := tr.start("sim.run", passSpan.id(), 0)
			eng, err := sim.NewEngine(w.simCfg, pf)
			if err != nil {
				return res, err
			}
			m := runLaps(eng, t.Accesses, l, len(res.sims), classicSegment)
			if timed != nil {
				sp.end(timed.p.aggs()...)
				res.probes = append(res.probes, timed.p)
			}
			res.sims = append(res.sims, m)
			res.events += len(t.Accesses)
		}
	}
	res.wallS = time.Since(t0).Seconds()
	passSpan.end()
	res.opsMS = l.ops()
	res.digest = digestOf(res.sims)
	return res, nil
}

// verify checks the definitions on all 24 rows and reports BO's quality,
// the mean over the three traces.
func (w *classicWorkload) verify(first passResult) (quality, []check, error) {
	var checks []check
	var q quality
	var base sim.Metrics
	n := 0
	for _, m := range first.sims {
		err := checkRatios(m)
		checks = append(checks, checkf("accuracy and coverage in [0,1]", err == nil, "%v", err))
		switch m.Prefetcher {
		case "none":
			base = m
			checks = append(checks, checkf("baseline issues nothing", m.PrefetchesIssued == 0, "baseline issued %d", m.PrefetchesIssued))
		case "bo":
			one := qualityOf(m, base)
			q.ipcGain += one.ipcGain
			q.accuracy += one.accuracy
			q.coverage += one.coverage
			n++
		}
	}
	if n != len(classicCells) {
		return quality{}, nil, fmt.Errorf("sim-classic produced %d BO rows, want %d", n, len(classicCells))
	}
	q.ipcGain /= float64(n)
	q.accuracy /= float64(n)
	q.coverage /= float64(n)
	return q, dedupe(checks), nil
}

// dedupe folds repeated passing checks of one name into one line.
func dedupe(cs []check) []check {
	var out []check
	seen := map[string]bool{}
	for _, c := range cs {
		if c.OK && seen[c.Name] {
			continue
		}
		seen[c.Name] = seen[c.Name] || c.OK
		out = append(out, c)
	}
	return out
}

package prefetch

import "mpgraph/internal/sim"

// EnsembleConfig parameterises the reinforced ensemble.
type EnsembleConfig struct {
	// Degree is the per-access prefetch budget shared by the components.
	Degree int
	// Epsilon is the exploration floor: every component keeps at least this
	// share of the budget (so it can re-earn weight after a phase change).
	Epsilon float64
	// DecayEvery halves all component credits periodically, so the
	// arbitration tracks the current phase rather than lifetime totals.
	DecayEvery int
	// Window bounds the per-component issued-block tracking sets.
	Window int
}

// DefaultEnsembleConfig mirrors ReSemble's spirit at total degree 6.
func DefaultEnsembleConfig() EnsembleConfig {
	return EnsembleConfig{Degree: 6, Epsilon: 0.1, DecayEvery: 4096, Window: 2048}
}

// Ensemble is a ReSemble-style (Zhang et al., SC 2022 — the paper's own
// citation for spatio-temporal ensembling) reinforced ensemble: several
// component prefetchers run side by side, each earns credit when a demand
// access hits a block it requested, and the shared degree budget is split
// proportionally to recent credit with an exploration floor.
type Ensemble struct {
	cfg        EnsembleConfig
	components []sim.Prefetcher
	credit     []float64
	issued     []map[uint64]bool
	fifo       []ring[uint64]
	tick       int
}

// NewEnsemble wraps the component prefetchers (at least one).
func NewEnsemble(cfg EnsembleConfig, components ...sim.Prefetcher) *Ensemble {
	if cfg.Degree <= 0 {
		cfg.Degree = 6
	}
	if cfg.DecayEvery <= 0 {
		cfg.DecayEvery = 4096
	}
	if cfg.Window <= 0 {
		cfg.Window = 2048
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.1
	}
	e := &Ensemble{cfg: cfg, components: components}
	for range components {
		e.credit = append(e.credit, 1)
		e.issued = append(e.issued, map[uint64]bool{})
		e.fifo = append(e.fifo, newRing[uint64](cfg.Window))
	}
	return e
}

// Name implements sim.Prefetcher.
func (e *Ensemble) Name() string { return "ensemble" }

// Credits exposes the current component credits (tests, reports).
func (e *Ensemble) Credits() []float64 {
	out := make([]float64, len(e.credit))
	copy(out, e.credit)
	return out
}

// InferenceLatencyCycles reports the slowest component's latency (they run
// in parallel).
func (e *Ensemble) InferenceLatencyCycles() uint64 {
	var worst uint64
	for _, c := range e.components {
		if il, ok := c.(sim.InferenceLatency); ok && il.InferenceLatencyCycles() > worst {
			worst = il.InferenceLatencyCycles()
		}
	}
	return worst
}

// Operate implements sim.Prefetcher.
func (e *Ensemble) Operate(acc sim.LLCAccess) []uint64 {
	// Reward components whose past requests cover this access.
	for i := range e.components {
		if e.issued[i][acc.Block] {
			delete(e.issued[i], acc.Block)
			e.credit[i]++
		}
	}
	e.tick++
	if e.tick%e.cfg.DecayEvery == 0 {
		for i := range e.credit {
			e.credit[i] = e.credit[i]/2 + 0.5 // decay toward the floor
		}
	}

	// Every component proposes; the budget is split by credit share with an
	// epsilon floor.
	proposals := make([][]uint64, len(e.components))
	total := 0.0
	for i, c := range e.components {
		proposals[i] = c.Operate(acc)
		total += e.credit[i]
	}
	floor := float64(e.cfg.Degree) * e.cfg.Epsilon / float64(len(e.components))
	out := make([]uint64, 0, e.cfg.Degree)
	seen := map[uint64]bool{}
	for i := range e.components {
		share := floor + float64(e.cfg.Degree)*(1-e.cfg.Epsilon)*e.credit[i]/total
		quota := int(share + 0.5)
		if quota < 1 {
			quota = 1
		}
		for _, b := range proposals[i] {
			if quota == 0 || len(out) >= e.cfg.Degree {
				break
			}
			if seen[b] {
				continue
			}
			seen[b] = true
			out = append(out, b)
			quota--
			e.track(i, b)
		}
	}
	// Spend leftover budget on the strongest component's remaining
	// proposals.
	if len(out) < e.cfg.Degree {
		best := 0
		for i := range e.credit {
			if e.credit[i] > e.credit[best] {
				best = i
			}
		}
		for _, b := range proposals[best] {
			if len(out) >= e.cfg.Degree {
				break
			}
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
				e.track(best, b)
			}
		}
	}
	return out
}

func (e *Ensemble) track(i int, block uint64) {
	if e.issued[i][block] {
		return
	}
	if old, full := e.fifo[i].push(block); full {
		delete(e.issued[i], old)
	}
	e.issued[i][block] = true
}

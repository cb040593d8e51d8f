package prefetch

import (
	"fmt"

	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
)

// GuardConfig tunes the Guarded degradation wrapper.
type GuardConfig struct {
	// MaxBlock is the highest block address a prefetch may target; anything
	// above it is an out-of-range violation. The default (1<<52) corresponds
	// to the 64-bit virtual address space ceiling (2^58 bytes >> 6).
	MaxBlock uint64
	// MaxViolations is how many violations are tolerated before the primary
	// is quarantined for good (default 3).
	MaxViolations int
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.MaxBlock == 0 {
		c.MaxBlock = 1 << 52
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 3
	}
	return c
}

// Guarded screens an ML prefetcher's outputs and degrades to a baseline when
// the model misbehaves. It watches for three defect classes: panics during
// Operate (recovered via a resilience boundary), self-reported model health
// failures (non-finite scores, see sim.HealthReporter), and out-of-range
// block addresses. Each defect is a
// violation; after GuardConfig.MaxViolations the primary is quarantined and
// every subsequent access is served by the fallback.
//
// The fallback runs warm: it observes every access from the start, so its
// online-trained state (e.g. BO's offset scores) is ready the moment the
// primary is benched. While the primary is healthy Guarded is transparent —
// same Name, same outputs, same inference latency — so healthy sweep reports
// are byte-identical with and without the wrapper.
type Guarded struct {
	primary   sim.Prefetcher
	fallback  sim.Prefetcher
	cfg       GuardConfig
	events    *resilience.Log
	component string // "prefetch/<primary>": the guard boundary and event source

	violations  int
	quarantined bool
}

// NewGuarded wraps primary with degradation to fallback. events may be nil.
func NewGuarded(primary, fallback sim.Prefetcher, cfg GuardConfig, events *resilience.Log) *Guarded {
	return &Guarded{primary: primary, fallback: fallback, cfg: cfg.withDefaults(), events: events,
		component: "prefetch/" + primary.Name()}
}

// Name implements sim.Prefetcher. It always reports the primary's name:
// report rows keep their identity across a mid-sweep degradation.
func (g *Guarded) Name() string { return g.primary.Name() }

// InferenceLatencyCycles implements sim.InferenceLatency, following
// whichever prefetcher is currently serving predictions.
func (g *Guarded) InferenceLatencyCycles() uint64 {
	serving := g.primary
	if g.quarantined {
		serving = g.fallback
	}
	if il, ok := serving.(sim.InferenceLatency); ok {
		return il.InferenceLatencyCycles()
	}
	return 0
}

// JoinBatch forwards batch-scheduler registration to the primary when it
// participates in batched inference (heuristic fallbacks never do). A
// quarantined primary stays joined but silent until LeaveBatch; the
// scheduler's watermark tolerates that — its session still finishes the
// chunk on the fallback and leaves, at which point waiters flush.
func (g *Guarded) JoinBatch() {
	if j, ok := g.primary.(interface{ JoinBatch() }); ok {
		j.JoinBatch()
	}
}

// LeaveBatch forwards batch-scheduler deregistration to the primary.
func (g *Guarded) LeaveBatch() {
	if l, ok := g.primary.(interface{ LeaveBatch() }); ok {
		l.LeaveBatch()
	}
}

// Quarantined reports whether the primary has been benched.
func (g *Guarded) Quarantined() bool { return g.quarantined }

// Violations reports how many defects have been observed so far.
func (g *Guarded) Violations() int { return g.violations }

// Operate implements sim.Prefetcher.
func (g *Guarded) Operate(acc sim.LLCAccess) []uint64 {
	// Warm standby: the fallback trains on every access so its state is
	// ready whenever the primary is benched. fbOut is the fallback's own
	// buffer and stays valid across the primary's call: no two prefetchers
	// share one.
	fbOut := g.fallback.Operate(acc)
	if g.quarantined {
		return fbOut
	}
	out, err := resilience.GuardVal(g.component, func() ([]uint64, error) {
		return g.primary.Operate(acc), nil
	})
	if err != nil {
		g.violate("panic-recovered", err.Error())
		return fbOut
	}
	if hr, ok := g.primary.(sim.HealthReporter); ok {
		if herr := hr.Health(); herr != nil {
			g.violate("model-health", herr.Error())
			return fbOut
		}
	}
	for _, b := range out {
		if b > g.cfg.MaxBlock {
			g.violate("out-of-range", fmt.Sprintf("block %#x exceeds max %#x", b, g.cfg.MaxBlock))
			return fbOut
		}
	}
	return out
}

// violate records one defect, engages the fallback for this access, and
// quarantines the primary once the violation budget is spent.
func (g *Guarded) violate(action, detail string) {
	g.violations++
	g.events.Add(g.component, action, detail)
	g.events.Add(g.component, "fallback", "serving "+g.fallback.Name()+" for this access")
	if g.violations >= g.cfg.MaxViolations {
		g.quarantined = true
		g.events.Add(g.component, "quarantine",
			fmt.Sprintf("%d violations: degraded to %s permanently", g.violations, g.fallback.Name()))
	}
}

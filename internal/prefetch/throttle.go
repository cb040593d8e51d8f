package prefetch

import (
	"mpgraph/internal/ring"
	"mpgraph/internal/sim"
)

// ThrottleConfig parameterises the feedback-directed degree controller.
type ThrottleConfig struct {
	// MaxDegree caps the issued prefetches per access.
	MaxDegree int
	// Interval is the accuracy-evaluation epoch in LLC accesses.
	Interval int
	// HighWater raises the degree when measured accuracy exceeds it.
	HighWater float64
	// LowWater lowers the degree when measured accuracy falls below it.
	LowWater float64
	// Window bounds the issued-block tracking set.
	Window int
}

// DefaultThrottleConfig mirrors feedback-directed prefetching's classic
// thresholds.
func DefaultThrottleConfig() ThrottleConfig {
	return ThrottleConfig{MaxDegree: 6, Interval: 512, HighWater: 0.75, LowWater: 0.40, Window: 4096}
}

// Throttle wraps any prefetcher with feedback-directed degree control
// (Srinath et al.'s FDP idea, applied here as the dynamic-degree knob the
// paper leaves to the controller): it measures its own prefetch accuracy
// over epochs and truncates the inner prefetcher's requests when accuracy
// is poor, restoring the full degree when accuracy recovers.
type Throttle struct {
	cfg   ThrottleConfig
	inner sim.Prefetcher

	degree                   int
	issued                   map[uint64]bool
	fifo                     ring.Ring[uint64]
	epochIssued, epochUseful int
	tick                     int
}

// NewThrottle wraps inner.
func NewThrottle(inner sim.Prefetcher, cfg ThrottleConfig) *Throttle {
	if cfg.MaxDegree <= 0 {
		cfg.MaxDegree = 6
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 512
	}
	if cfg.Window <= 0 {
		cfg.Window = 4096
	}
	return &Throttle{cfg: cfg, inner: inner, degree: cfg.MaxDegree, issued: make(map[uint64]bool), fifo: ring.New[uint64](cfg.Window)}
}

// Name implements sim.Prefetcher.
func (t *Throttle) Name() string { return t.inner.Name() + "+throttle" }

// Degree exposes the current dynamic degree (tests, reports).
func (t *Throttle) Degree() int { return t.degree }

// InferenceLatencyCycles forwards the inner model's latency, if any.
func (t *Throttle) InferenceLatencyCycles() uint64 {
	if il, ok := t.inner.(sim.InferenceLatency); ok {
		return il.InferenceLatencyCycles()
	}
	return 0
}

// Operate implements sim.Prefetcher.
func (t *Throttle) Operate(acc sim.LLCAccess) []uint64 {
	// Feedback: a demand access to a tracked issued block is a useful
	// prefetch.
	if t.issued[acc.Block] {
		delete(t.issued, acc.Block)
		t.epochUseful++
	}
	t.tick++
	if t.tick%t.cfg.Interval == 0 && t.epochIssued > 0 {
		accuracy := float64(t.epochUseful) / float64(t.epochIssued)
		switch {
		case accuracy > t.cfg.HighWater && t.degree < t.cfg.MaxDegree:
			t.degree++
		case accuracy < t.cfg.LowWater && t.degree > 1:
			t.degree--
		}
		t.epochIssued, t.epochUseful = 0, 0
	}

	out := t.inner.Operate(acc)
	if len(out) > t.degree {
		out = out[:t.degree]
	}
	for _, b := range out {
		if !t.issued[b] {
			if old, full := t.fifo.Push(b); full {
				delete(t.issued, old)
			}
			t.issued[b] = true
			// Duplicate requests are filtered by the LLC anyway; only
			// newly tracked blocks count toward the accuracy estimate.
			t.epochIssued++
		}
	}
	return out
}

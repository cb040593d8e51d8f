// Package prefetch implements the baseline prefetchers the paper compares
// MPGraph against (Section 5.4.1): the rule-based Best-Offset (BO) and
// Irregular Stream Buffer (ISB), and the ML-based Delta-LSTM, Voyager, and
// TransFetch, all behind the sim.Prefetcher interface.
package prefetch

import (
	"mpgraph/internal/sim"
)

// BOConfig parameterises the Best-Offset prefetcher (Michaud, HPCA 2016).
type BOConfig struct {
	// MaxOffset bounds the candidate offset magnitude (both signs tested).
	MaxOffset int
	// RoundLength is the number of accesses per learning round.
	RoundLength int
	// ScoreMax ends a round early when any offset reaches it.
	ScoreMax int
	// RRSize is the recent-requests table size (power of two).
	RRSize int
	// Degree is how many multiples of the best offset to issue (the paper
	// sets all baselines to degree 6).
	Degree int
}

// DefaultBOConfig mirrors the original proposal at degree 6.
func DefaultBOConfig() BOConfig {
	return BOConfig{MaxOffset: 32, RoundLength: 128, ScoreMax: 31, RRSize: 256, Degree: 6}
}

// BO is the Best-Offset prefetcher: it scores candidate offsets d by
// checking whether X-d was recently requested (meaning a d-offset prefetch
// issued back then would have been timely) and prefetches multiples of the
// winning offset.
type BO struct {
	cfg        BOConfig
	rr         []uint64 // recent requests, direct-mapped by block
	offsets    []int64
	scores     []int
	roundCount int
	best       int64
	out        []uint64 // Operate's result, reused call to call
}

// NewBO builds the prefetcher.
func NewBO(cfg BOConfig) *BO {
	b := &BO{cfg: cfg, rr: make([]uint64, cfg.RRSize), best: 1, out: make([]uint64, max(cfg.Degree, 0))}
	for d := 1; d <= cfg.MaxOffset; d++ {
		b.offsets = append(b.offsets, int64(d), int64(-d))
	}
	b.scores = make([]int, len(b.offsets))
	return b
}

// Name implements sim.Prefetcher.
func (b *BO) Name() string { return "bo" }

// BestOffset exposes the current winner (tests).
func (b *BO) BestOffset() int64 { return b.best }

func (b *BO) rrIndex(block uint64) int { return int(block) & (b.cfg.RRSize - 1) }

// Operate implements sim.Prefetcher. The result is BO's own buffer, valid
// until the next call.
//
//mpgraph:noalloc
func (b *BO) Operate(acc sim.LLCAccess) []uint64 {
	x := acc.Block
	// Score offsets against the recent-requests table. The round ends only
	// after the full scoring pass so every offset sees the same number of
	// scoring opportunities; the winner on a ScoreMax tie is the
	// smallest-index (smallest-magnitude) offset, as in the original.
	trigger := -1
	for i, d := range b.offsets {
		base := uint64(int64(x) - d)
		if b.rr[b.rrIndex(base)] == base {
			b.scores[i]++
			if b.scores[i] >= b.cfg.ScoreMax && trigger < 0 {
				trigger = i
			}
		}
	}
	b.roundCount++
	if trigger >= 0 {
		b.endRound(trigger)
	} else if b.roundCount >= b.cfg.RoundLength {
		bestIdx := 0
		for i, s := range b.scores {
			if s > b.scores[bestIdx] {
				bestIdx = i
			}
		}
		b.endRound(bestIdx)
	}
	// Record the request (the original records the base of completed
	// fills; block granularity suffices here).
	b.rr[b.rrIndex(x)] = x

	n := 0
	for ; n < len(b.out); n++ {
		target := int64(x) + b.best*int64(n+1)
		if target < 0 {
			break
		}
		b.out[n] = uint64(target)
	}
	return b.out[:n]
}

func (b *BO) endRound(bestIdx int) {
	if b.scores[bestIdx] > 0 {
		b.best = b.offsets[bestIdx]
	}
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.roundCount = 0
}

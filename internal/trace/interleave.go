package trace

import (
	"math/rand"
	"slices"
)

// Interleave merges per-core access streams into one shared-LLC order. The
// paper's challenge #2 is that "parallel executions under multi-core systems
// introduce randomness and irregularity"; this merge models it: cores make
// progress in bursts (geometric run lengths) rather than strict round-robin,
// so the LLC sees interleaved instruction streams from different cores.
//
// The merge keeps each core's internal order (program order is preserved
// per core) and is deterministic for a given seed.
func Interleave(streams [][]Access, meanBurst int, seed int64) []Access {
	return AppendInterleave(nil, streams, meanBurst, seed)
}

// AppendInterleave is Interleave appending to dst, append-style: the merge
// lands in dst's spare capacity when it fits and the extended slice is
// returned. The streams are read, never written. A caller that appends
// repeatedly reserves capacity by its own policy first.
func AppendInterleave(dst []Access, streams [][]Access, meanBurst int, seed int64) []Access {
	if meanBurst < 1 {
		meanBurst = 1
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]int, len(streams))
	total, live := 0, 0
	for _, s := range streams {
		total += len(s)
		if len(s) > 0 {
			live++
		}
	}
	out := slices.Grow(dst, total)
	for live > 0 {
		// Pick a random live core, weighted by remaining work so long
		// streams do not starve at the tail.
		c := pickLive(rng, streams, pos)
		// Burst length ~ Geometric(1/meanBurst).
		burst := 1
		for rng.Float64() < 1-1/float64(meanBurst) {
			burst++
		}
		from := len(out)
		out = append(out, streams[c][pos[c]:min(pos[c]+burst, len(streams[c]))]...)
		for i := from; i < len(out); i++ {
			out[i].Core = uint8(c)
		}
		pos[c] += len(out) - from
		if pos[c] >= len(streams[c]) {
			live = 0
			for ci, s := range streams {
				if pos[ci] < len(s) {
					live++
				}
			}
		}
	}
	return out
}

func pickLive(rng *rand.Rand, streams [][]Access, pos []int) int {
	remaining := 0
	for c, s := range streams {
		remaining += len(s) - pos[c]
	}
	r := rng.Intn(remaining)
	for c, s := range streams {
		left := len(s) - pos[c]
		if r < left {
			return c
		}
		r -= left
	}
	// Unreachable when remaining > 0.
	for c, s := range streams {
		if pos[c] < len(s) {
			return c
		}
	}
	return 0
}

package trace

import (
	"math/rand"
	"slices"
)

// AppendInterleave merges per-core access streams into one shared-LLC order,
// appended to dst. The paper's challenge #2 is that "parallel executions under
// multi-core systems introduce randomness and irregularity"; this merge
// models it: cores make progress in bursts (geometric run lengths) rather
// than strict round-robin, so the LLC sees interleaved instruction streams
// from different cores.
//
// The merge keeps each core's internal order (program order is preserved
// per core) and is deterministic for a given seed. It copies accesses as
// their streams hold them: streams[c] is core c's, and its builder writes
// c into each access's Core (the frameworks' emitter does so at emit). It is
// append-style: the merge lands in dst's spare capacity when it fits and the
// extended slice is returned. The streams are read, never written. A caller
// that appends repeatedly reserves capacity by its own policy first.
//
// Every draw is the one rand.New(rand.NewSource(seed)) would make, taken
// straight from the source: Intn for the pick, Float64 for each burst step.
func AppendInterleave(dst []Access, streams [][]Access, meanBurst int, seed int64) []Access {
	if meanBurst < 1 {
		meanBurst = 1
	}
	src := rand.NewSource(seed)
	pos := make([]int, len(streams))
	remaining := 0
	for _, s := range streams {
		remaining += len(s)
	}
	out := slices.Grow(dst, remaining)
	stay := 1 - 1/float64(meanBurst)
	for remaining > 0 {
		// Pick a random live core, weighted by remaining work so long
		// streams do not starve at the tail.
		r, c := intn(src, remaining), 0
		for r >= len(streams[c])-pos[c] {
			r -= len(streams[c]) - pos[c]
			c++
		}
		// Burst length ~ Geometric(1/meanBurst).
		burst := 1
		for unitFloat(src) < stay {
			burst++
		}
		from := pos[c]
		pos[c] = min(from+burst, len(streams[c]))
		out = append(out, streams[c][from:pos[c]]...)
		remaining -= pos[c] - from
	}
	return out
}

// intn is rand.New(src).Intn(n) for n > 0: Int31n's rejection arithmetic on
// the source's draws.
func intn(src rand.Source, n int) int {
	if n > 1<<31-1 {
		return rand.New(src).Intn(n)
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(src.Int63()>>32) & (m - 1))
	}
	bound := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(src.Int63() >> 32)
	for v > bound {
		v = int32(src.Int63() >> 32)
	}
	return int(v % m)
}

// unitFloat is rand.New(src).Float64(): Int63/2⁶³, drawn again when the
// quotient rounds up to 1.
func unitFloat(src rand.Source) float64 {
	for {
		if f := float64(src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

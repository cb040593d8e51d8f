// Package sim is the trace-driven multi-core memory-hierarchy simulator that
// substitutes for ChampSim (DESIGN.md §2). It models per-core L1D and L2
// caches and a shared last-level cache with a prefetcher hook, each a
// recency-ordered true LRU, a bandwidth- and latency-modelled DRAM, and a
// ROB/MSHR-limited overlap model per core, and reports the metrics the paper
// evaluates prefetchers on: IPC, prefetch accuracy, and prefetch coverage.
package sim

import "fmt"

// line is one cache line's metadata; its way in the set is its recency.
type line struct {
	tag        uint64
	valid      bool
	prefetched bool // filled by a prefetch and not yet demand-referenced
	readyAt    uint64
}

// Cache is a set-associative cache with recency-ordered true-LRU
// replacement: each set holds its lines most recent first, its valid lines
// form a prefix of the set, and a scan stops at the first invalid way.
type Cache struct {
	name  string
	sets  int
	ways  int
	lines []line // sets*ways, row-major by set

	Hits, Misses uint64
}

// NewCache builds a cache with the given geometry. Sets must be a power of
// two.
func NewCache(name string, sets, ways int) (*Cache, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("sim: %s sets %d must be a positive power of two", name, sets)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("sim: %s ways %d must be positive", name, ways)
	}
	return &Cache{name: name, sets: sets, ways: ways, lines: make([]line, sets*ways)}, nil
}

// SizeBytes reports the cache capacity given 64-byte lines.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * 64 }

func (c *Cache) set(block uint64) []line {
	idx := int(block & uint64(c.sets-1))
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// toFront writes l at the front of set, shifting ways 0..i-1 down by one
// (way i is overwritten: l's old place, or the victim). A loop rather than
// copy: most moves are of a few ways, where memmove's call costs more than
// the move (BenchmarkCache/hit-front).
func toFront(set []line, i int, l line) {
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = l
}

// Lookup is a demand probe for block. On hit it moves the line to the front
// of its set and returns the line's fill time; wasPrefetch reports whether
// this is the first demand touch of a prefetched line, and the flag clears.
//
//mpgraph:noalloc
func (c *Cache) Lookup(block uint64) (hit bool, readyAt uint64, wasPrefetch bool) {
	set := c.set(block)
	for i := range set {
		if !set[i].valid {
			break
		}
		if set[i].tag == block {
			l := set[i]
			wasPrefetch = l.prefetched
			l.prefetched = false
			toFront(set, i, l)
			c.Hits++
			return true, l.readyAt, wasPrefetch
		}
	}
	c.Misses++
	return false, 0, false
}

// Insert fills block at the front of its set, evicting the least recently
// used line (the last way) when the set is full. readyAt is the cycle at
// which the fill data arrives (demand hits earlier than that pay the
// difference). It returns the evicted block and whether the victim was a
// never-used prefetch (for pollution accounting).
//
//mpgraph:noalloc
func (c *Cache) Insert(block uint64, prefetched bool, readyAt uint64) (evicted uint64, evictedValid, evictedUnusedPrefetch bool) {
	set := c.set(block)
	victim := len(set) - 1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].tag == block {
			// Already present (racing fills); refresh.
			l := set[i]
			if !prefetched {
				l.prefetched = false
			}
			l.readyAt = min(l.readyAt, readyAt)
			toFront(set, i, l)
			return 0, false, false
		}
	}
	v := set[victim]
	evicted, evictedValid, evictedUnusedPrefetch = v.tag, v.valid, v.valid && v.prefetched
	toFront(set, victim, line{tag: block, valid: true, prefetched: prefetched, readyAt: readyAt})
	return evicted, evictedValid, evictedUnusedPrefetch
}

// Contains probes without touching recency order or counters (used by
// prefetch-issue filtering and tests).
//
//mpgraph:noalloc
func (c *Cache) Contains(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if !set[i].valid {
			return false
		}
		if set[i].tag == block {
			return true
		}
	}
	return false
}

// Package sim is the trace-driven multi-core memory-hierarchy simulator that
// substitutes for ChampSim (DESIGN.md §2). It models per-core L1D and L2
// caches, a shared last-level cache with a prefetcher hook, a bandwidth- and
// latency-modelled DRAM, and a ROB/MSHR-limited overlap model per core, and
// reports the metrics the paper evaluates prefetchers on: IPC, prefetch
// accuracy, and prefetch coverage.
package sim

import "fmt"

// line is one cache line's metadata.
type line struct {
	tag        uint64
	valid      bool
	prefetched bool // filled by a prefetch and not yet demand-referenced
	readyAt    uint64
	lastUse    uint64 // LRU timestamp
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	name     string
	sets     int
	ways     int
	lines    []line // sets*ways, row-major by set
	useClock uint64

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

// Lookup probes for block. On hit it refreshes LRU state and returns the
// line; the returned wasPrefetch reports whether this is the first demand
// touch of a prefetched line (and clears the flag when demand is true).
//
//mpgraph:noalloc
func (c *Cache) Lookup(block uint64, demand bool) (hit bool, readyAt uint64, wasPrefetch bool) {
	c.useClock++
	set := c.set(block)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == block {
			l.lastUse = c.useClock
			wasPrefetch = l.prefetched
			if demand {
				l.prefetched = false
				c.Hits++
			}
			return true, l.readyAt, wasPrefetch
		}
	}
	if demand {
		c.Misses++
	}
	return false, 0, false
}

// Insert fills block, evicting the LRU way. readyAt is the cycle at which
// the fill data arrives (demand hits earlier than that pay the difference).
// It returns the evicted block and whether the victim was a never-used
// prefetch (for pollution accounting).
//
//mpgraph:noalloc
func (c *Cache) Insert(block uint64, prefetched bool, readyAt uint64) (evicted uint64, evictedValid, evictedUnusedPrefetch bool) {
	c.useClock++
	set := c.set(block)
	victim := 0
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == block {
			// Already present (racing fills); refresh.
			l.lastUse = c.useClock
			if !prefetched {
				l.prefetched = false
			}
			if readyAt < l.readyAt {
				l.readyAt = readyAt
			}
			return 0, false, false
		}
		if !l.valid {
			victim = i
			break
		}
		if l.lastUse < set[victim].lastUse {
			victim = i
		}
	}
	v := &set[victim]
	evicted, evictedValid, evictedUnusedPrefetch = v.tag, v.valid, v.valid && v.prefetched
	*v = line{tag: block, valid: true, prefetched: prefetched, readyAt: readyAt, lastUse: c.useClock}
	return evicted, evictedValid, evictedUnusedPrefetch
}

// Contains probes without touching LRU or counters (used by prefetch-issue
// filtering and tests).
//
//mpgraph:noalloc
func (c *Cache) Contains(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.Hits, c.Misses, c.useClock = 0, 0, 0
}

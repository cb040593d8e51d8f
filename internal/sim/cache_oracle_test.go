package sim

import (
	"math/rand"
	"testing"
)

// refCache is a naive set-associative true-LRU cache: each set is its lines
// in recency order, most recent first, and nothing else — no clock, no way
// index. It is the oracle Cache is held to (ROADMAP item 14).
type refCache struct {
	sets, ways   int
	lines        [][]refLine
	hits, misses uint64
}

type refLine struct {
	block      uint64
	prefetched bool
	readyAt    uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, lines: make([][]refLine, sets)}
}

func (c *refCache) find(block uint64) (set, i int) {
	set = int(block % uint64(c.sets))
	for i, l := range c.lines[set] {
		if l.block == block {
			return set, i
		}
	}
	return set, -1
}

// touch moves line i of set to the front and returns it.
func (c *refCache) touch(set, i int) *refLine {
	s := c.lines[set]
	l := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = l
	return &s[0]
}

func (c *refCache) lookup(block uint64, demand bool) (hit bool, readyAt uint64, wasPrefetch bool) {
	set, i := c.find(block)
	if i < 0 {
		if demand {
			c.misses++
		}
		return false, 0, false
	}
	l := c.touch(set, i)
	wasPrefetch = l.prefetched
	if demand {
		l.prefetched = false
		c.hits++
	}
	return true, l.readyAt, wasPrefetch
}

func (c *refCache) insert(block uint64, prefetched bool, readyAt uint64) (evicted uint64, evictedValid, evictedUnusedPrefetch bool) {
	set, i := c.find(block)
	if i >= 0 {
		l := c.touch(set, i)
		if !prefetched {
			l.prefetched = false
		}
		l.readyAt = min(l.readyAt, readyAt)
		return 0, false, false
	}
	s := c.lines[set]
	if len(s) == c.ways {
		victim := s[len(s)-1]
		evicted, evictedValid, evictedUnusedPrefetch = victim.block, true, victim.prefetched
		s = s[:len(s)-1]
	}
	c.lines[set] = append([]refLine{{block: block, prefetched: prefetched, readyAt: readyAt}}, s...)
	return evicted, evictedValid, evictedUnusedPrefetch
}

// TestCacheMatchesNaiveLRU drives Cache and refCache with the same random
// streams over several geometries — demand and prefetch lookups, demand and
// prefetch inserts, duplicate inserts of resident blocks, readyAt values
// earlier and later than a resident line's — and requires every result
// (hit, readyAt, wasPrefetch; victim, its validity, evictedUnusedPrefetch),
// every Contains answer and the hit/miss counters to agree on every
// operation.
func TestCacheMatchesNaiveLRU(t *testing.T) {
	geometries := []struct{ sets, ways int }{{1, 1}, {1, 4}, {2, 3}, {4, 2}, {16, 8}, {64, 16}}
	for gi, g := range geometries {
		rng := rand.New(rand.NewSource(int64(71 + gi)))
		c, err := NewCache("oracle", g.sets, g.ways)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(g.sets, g.ways)
		universe := uint64(2 * g.sets * g.ways)
		var recent []uint64
		for op := 0; op < 20000; op++ {
			block := rng.Uint64() % universe
			if len(recent) > 0 && rng.Intn(3) == 0 {
				block = recent[rng.Intn(len(recent))]
			}
			readyAt := uint64(rng.Intn(1000))
			switch kind := rng.Intn(5); kind {
			case 0, 1:
				demand := kind == 0
				hit, ready, wasPF := c.Lookup(block, demand)
				rhit, rready, rwasPF := ref.lookup(block, demand)
				if hit != rhit || ready != rready || wasPF != rwasPF {
					t.Fatalf("%dx%d op %d: Lookup(%d, demand=%v) = (%v, %d, %v), reference (%v, %d, %v)",
						g.sets, g.ways, op, block, demand, hit, ready, wasPF, rhit, rready, rwasPF)
				}
			default:
				prefetched := kind == 4
				ev, valid, unused := c.Insert(block, prefetched, readyAt)
				rev, rvalid, runused := ref.insert(block, prefetched, readyAt)
				if ev != rev || valid != rvalid || unused != runused {
					t.Fatalf("%dx%d op %d: Insert(%d, prefetched=%v, %d) = (%d, %v, %v), reference (%d, %v, %v)",
						g.sets, g.ways, op, block, prefetched, readyAt, ev, valid, unused, rev, rvalid, runused)
				}
				recent = append(recent, block)
				if len(recent) > 8 {
					recent = recent[1:]
				}
			}
			probe := rng.Uint64() % universe
			if _, i := ref.find(probe); c.Contains(probe) != (i >= 0) {
				t.Fatalf("%dx%d op %d: Contains(%d) = %v, reference %v", g.sets, g.ways, op, probe, !(i >= 0), i >= 0)
			}
			if c.Hits != ref.hits || c.Misses != ref.misses {
				t.Fatalf("%dx%d op %d: hits/misses %d/%d, reference %d/%d", g.sets, g.ways, op, c.Hits, c.Misses, ref.hits, ref.misses)
			}
		}
	}
}

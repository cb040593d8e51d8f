package sim

import (
	"math/rand"
	"testing"
)

// refCache is a naive set-associative true-LRU cache: each set is its lines
// in recency order, most recent first, and nothing else — no clock, no way
// index. It is the oracle Cache is held to.
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

func (c *refCache) lookup(block uint64) (hit bool, readyAt uint64, wasPrefetch bool) {
	set, i := c.find(block)
	if i < 0 {
		c.misses++
		return false, 0, false
	}
	l := c.touch(set, i)
	wasPrefetch = l.prefetched
	l.prefetched = false
	c.hits++
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

// checkSets fails at op unless every set from lo to hi-1 (set indices) keeps
// its valid lines as a prefix with distinct tags: the scans that stop at the
// first invalid way rely on it.
func checkSets(t *testing.T, c *Cache, lo, hi, op int) {
	t.Helper()
	for s := lo; s < hi; s++ {
		set := c.lines[s*c.ways : (s+1)*c.ways]
		n := 0
		for n < len(set) && set[n].valid {
			n++
		}
		for i := n; i < len(set); i++ {
			if set[i].valid {
				t.Fatalf("%dx%d op %d: set %d way %d is valid after invalid way %d", c.sets, c.ways, op, s, i, n)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if set[i].tag == set[j].tag {
					t.Fatalf("%dx%d op %d: set %d holds block %d in ways %d and %d", c.sets, c.ways, op, s, set[i].tag, i, j)
				}
			}
		}
	}
}

// TestCacheMatchesNaiveLRU drives Cache and refCache with the same random
// streams over small geometries, the small-scale hierarchy's (64×4, 128×8,
// 256×16) and Table 3's (256×4, 1024×8, 2048×16) — lookups, demand and
// prefetch inserts, duplicate inserts of resident blocks, readyAt values
// earlier and later than a resident line's, blocks near 0 and near the top
// of the block range (2^58 − 1) — and requires every result (hit, readyAt,
// wasPrefetch; victim, its validity, evictedUnusedPrefetch), every Contains
// answer and the hit/miss counters to agree on every operation. After every
// operation the set it touched, and every 1024 operations all sets, must
// keep their valid lines a prefix with distinct tags.
func TestCacheMatchesNaiveLRU(t *testing.T) {
	geometries := []struct{ sets, ways int }{
		{1, 1}, {1, 4}, {2, 3}, {4, 2}, {16, 8}, {64, 16},
		{64, 4}, {128, 8}, {256, 16},
		{256, 4}, {1024, 8}, {2048, 16},
	}
	const top = 1<<58 - 1
	for gi, g := range geometries {
		rng := rand.New(rand.NewSource(int64(71 + gi)))
		c, err := NewCache("oracle", g.sets, g.ways)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(g.sets, g.ways)
		// Half the draws come from the universe's last blocks below 2^58,
		// which share sets with the low ones (2^58 is a multiple of sets).
		universe := uint64(2 * g.sets * g.ways)
		draw := func() uint64 {
			b := rng.Uint64() % universe
			if rng.Intn(2) == 0 {
				b = top - b
			}
			return b
		}
		var recent []uint64
		ops := max(20000, 8*g.sets*g.ways)
		for op := 0; op < ops; op++ {
			block := draw()
			if len(recent) > 0 && rng.Intn(3) == 0 {
				block = recent[rng.Intn(len(recent))]
			}
			readyAt := uint64(rng.Intn(1000))
			switch kind := rng.Intn(4); kind {
			case 0:
				hit, ready, wasPF := c.Lookup(block)
				rhit, rready, rwasPF := ref.lookup(block)
				if hit != rhit || ready != rready || wasPF != rwasPF {
					t.Fatalf("%dx%d op %d: Lookup(%d) = (%v, %d, %v), reference (%v, %d, %v)",
						g.sets, g.ways, op, block, hit, ready, wasPF, rhit, rready, rwasPF)
				}
			default:
				prefetched := kind == 3
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
			s := int(block & uint64(g.sets-1))
			checkSets(t, c, s, s+1, op)
			if op%1024 == 1023 || op == ops-1 {
				checkSets(t, c, 0, g.sets, op)
			}
			probe := draw()
			if _, i := ref.find(probe); c.Contains(probe) != (i >= 0) {
				t.Fatalf("%dx%d op %d: Contains(%d) = %v, reference %v", g.sets, g.ways, op, probe, !(i >= 0), i >= 0)
			}
			if c.Hits != ref.hits || c.Misses != ref.misses {
				t.Fatalf("%dx%d op %d: hits/misses %d/%d, reference %d/%d", g.sets, g.ways, op, c.Hits, c.Misses, ref.hits, ref.misses)
			}
		}
	}
}

// Package core implements MPGraph, the paper's primary contribution: an
// LLC prefetcher for graph analytics driven by a phase-transition detector,
// phase-specific multi-modality predictors, and the Chain Spatio-Temporal
// Prefetching (CSTP) controller with its Page Base-Offset Table (PBOT).
package core

import (
	"math/bits"

	"mpgraph/internal/ring"
	"mpgraph/internal/trace"
)

// PBOTEntry is the state CSTP keeps per page: the most recent block offset
// and the PC that accessed it (Section 4.4.2).
type PBOTEntry struct {
	Offset uint64
	PC     uint64
}

// PBOT is the page base-offset table: a bounded FIFO-evicted map from page
// to its latest (offset, PC). The insertion order is a ring, the map an
// open-addressed table (linear probing, at most half full) keyed by page that
// doubles while the table fills and never again, so once full an update never
// allocates however the pages churn.
type PBOT struct {
	max   int
	fifo  ring.Ring[uint64]
	slots []pbotSlot
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
}

// pbotSlot is one table slot; key is page+1, 0 marks it empty (a page is a
// block address shifted right, so page+1 never wraps).
type pbotSlot struct {
	key   uint64
	entry PBOTEntry
}

// NewPBOT builds a table bounded to max pages.
func NewPBOT(max int) *PBOT {
	if max <= 0 {
		max = 4096
	}
	p := &PBOT{max: max, fifo: ring.New[uint64](max)}
	p.resize(16)
	return p
}

// resize moves the entries into a table of size slots, a power of two.
func (p *PBOT) resize(size int) {
	old := p.slots
	p.slots, p.shift = make([]pbotSlot, size), uint(64-bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			p.slots[p.find(s.key)] = s
		}
	}
}

// home is the slot a page's probe starts at (Fibonacci hashing).
func (p *PBOT) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> p.shift) }

// find returns the slot holding key, or the empty slot that ends its probe.
func (p *PBOT) find(key uint64) int {
	mask := len(p.slots) - 1
	i := p.home(key)
	for p.slots[i].key != key && p.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Update records the latest offset and PC for the page containing block.
func (p *PBOT) Update(block, pc uint64) {
	key := trace.PageOfBlock(block) + 1
	i := p.find(key)
	if p.slots[i].key == 0 {
		if victim, full := p.fifo.Push(key); full {
			p.remove(victim)
			i = p.find(key) // the removal may have shifted the probe's end
		} else if p.n++; 2*p.n > len(p.slots) {
			p.resize(2 * len(p.slots))
			i = p.find(key)
		}
		p.slots[i].key = key
	}
	p.slots[i].entry = PBOTEntry{Offset: trace.BlockOffset(block), PC: pc}
}

// remove deletes key, a page in the table, by backward shift: every later
// entry of the probe run that may move back into the hole does, so no probe
// ever crosses an emptied slot.
func (p *PBOT) remove(key uint64) {
	mask := len(p.slots) - 1
	i := p.find(key)
	for j := (i + 1) & mask; p.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j stays unless its home lies cyclically outside (i, j].
		if h := p.home(p.slots[j].key); (h-i-1)&mask < (j-i)&mask {
			continue
		}
		p.slots[i] = p.slots[j]
		i = j
	}
	p.slots[i] = pbotSlot{}
}

// Lookup returns the entry for page.
func (p *PBOT) Lookup(page uint64) (PBOTEntry, bool) {
	s := p.slots[p.find(page+1)]
	return s.entry, s.key != 0
}

// Len reports the number of tracked pages.
func (p *PBOT) Len() int { return p.n }

// Package trace defines the memory-access trace representation shared by the
// framework simulators (which produce traces), the cache simulator (which
// consumes them and can capture the filtered LLC stream), and the ML models
// (which train on the LLC stream). It also provides the address arithmetic
// for blocks and pages, a PC registry that assigns stable program-counter
// values to static code sites, a virtual address-space allocator, and a
// multi-core stream interleaver.
package trace

import "fmt"

const (
	// BlockBits is log2 of the 64-byte cache-line size (Table 3).
	BlockBits = 6
	// PageBits is log2 of the 4 KiB page size.
	PageBits = 12
	// BlocksPerPage is the number of cache lines per page (64).
	BlocksPerPage = 1 << (PageBits - BlockBits)
)

// Access is one memory reference observed by the memory hierarchy.
type Access struct {
	// Addr is the virtual byte address.
	Addr uint64
	// PC identifies the static code site issuing the access.
	PC uint64
	// Core is the issuing core id.
	Core uint8
	// Phase is the ground-truth framework phase label (available because we
	// generate the trace; detectors must not peek except for supervised
	// training, mirroring the paper's "phase label accessible" scenario).
	Phase uint8
	// Gap is the number of non-memory instructions the core executed since
	// its previous memory access; it gives IPC a denominator.
	Gap uint8
	// Write marks stores.
	Write bool
}

// Block returns the cache-block index of a byte address.
func Block(addr uint64) uint64 { return addr >> BlockBits }

// Page returns the page index of a byte address.
func Page(addr uint64) uint64 { return addr >> PageBits }

// PageOfBlock returns the page index of a block index.
func PageOfBlock(block uint64) uint64 { return block >> (PageBits - BlockBits) }

// BlockOffset returns the block's offset within its page, in [0,BlocksPerPage).
func BlockOffset(block uint64) uint64 { return block & (BlocksPerPage - 1) }

// BlockAddr returns the first byte address of a block index.
func BlockAddr(block uint64) uint64 { return block << BlockBits }

// BlockOfPageOffset reassembles a block index from a page index and an
// offset within the page.
func BlockOfPageOffset(page, offset uint64) uint64 {
	return page<<(PageBits-BlockBits) | (offset & (BlocksPerPage - 1))
}

// Trace is an ordered access stream plus the barrier structure the
// generating framework observed.
type Trace struct {
	Accesses []Access
	// IterationStarts holds the index in Accesses where each iteration
	// (super-step) begins; IterationStarts[0] == 0 when non-empty.
	IterationStarts []int
	// NumPhases is the framework's phase count per iteration (Table 1).
	NumPhases int
	// App and Framework identify the generating workload.
	App, Framework string
}

// Iteration returns the half-open access range [lo,hi) of iteration i.
func (t *Trace) Iteration(i int) (lo, hi int, err error) {
	if i < 0 || i >= len(t.IterationStarts) {
		return 0, 0, fmt.Errorf("trace: iteration %d out of range [0,%d)", i, len(t.IterationStarts))
	}
	lo = t.IterationStarts[i]
	hi = len(t.Accesses)
	if i+1 < len(t.IterationStarts) {
		hi = t.IterationStarts[i+1]
	}
	return lo, hi, nil
}

// NumIterations reports how many barrier-delimited iterations the trace holds.
func (t *Trace) NumIterations() int { return len(t.IterationStarts) }

// Slice returns a shallow sub-trace covering accesses [lo,hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Accesses) {
		hi = len(t.Accesses)
	}
	if lo > hi {
		lo = hi
	}
	sub := &Trace{Accesses: t.Accesses[lo:hi], NumPhases: t.NumPhases, App: t.App, Framework: t.Framework}
	for _, s := range t.IterationStarts {
		if s >= lo && s < hi {
			sub.IterationStarts = append(sub.IterationStarts, s-lo)
		}
	}
	return sub
}

// PhaseTransitions returns the indices at which the ground-truth phase label
// changes (used to score detectors).
func (t *Trace) PhaseTransitions() []int {
	var out []int
	for i := 1; i < len(t.Accesses); i++ {
		if t.Accesses[i].Phase != t.Accesses[i-1].Phase {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks the invariants a consumer may slice by: a phase count >= 0,
// iteration starts strictly increasing from 0 and inside the accesses, and
// every access's phase below NumPhases when that is set. Read returns only
// traces that pass it.
func (t *Trace) Validate() error {
	if t.NumPhases < 0 {
		return fmt.Errorf("trace: NumPhases %d < 0", t.NumPhases)
	}
	prev := -1
	for i, s := range t.IterationStarts {
		if s <= prev {
			return fmt.Errorf("trace: iteration starts not strictly increasing at %d", i)
		}
		if s > 0 && s >= len(t.Accesses) {
			return fmt.Errorf("trace: iteration start %d beyond accesses", s)
		}
		prev = s
	}
	if len(t.IterationStarts) > 0 && t.IterationStarts[0] != 0 {
		return fmt.Errorf("trace: first iteration must start at 0")
	}
	for i, a := range t.Accesses {
		if t.NumPhases > 0 && int(a.Phase) >= t.NumPhases {
			return fmt.Errorf("trace: access %d phase %d >= NumPhases %d", i, a.Phase, t.NumPhases)
		}
	}
	return nil
}

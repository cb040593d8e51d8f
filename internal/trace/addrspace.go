package trace

import "mpgraph/internal/invariant"

// Region is a named, page-aligned virtual address range backing one data
// structure of a framework (a vertex-value array, the CSR edge array, a
// per-partition update bin, ...).
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// Elem returns the byte address of the i-th element of elemSize bytes.
// It panics if the element lies outside the region — that is always a
// framework-model bug, not an input error.
func (r Region) Elem(i int, elemSize uint64) uint64 {
	addr := r.Base + uint64(i)*elemSize
	if addr+elemSize > r.Base+r.Size {
		invariant.Failf("trace: %s[%d] (elem %dB) outside region of %dB", r.Name, i, elemSize, r.Size)
	}
	return addr
}

// AddressSpace hands out non-overlapping page-aligned regions, modelling the
// heap layout a real framework run would produce. A guard gap is left
// between regions so that distinct structures never share a page, matching
// the behaviour of large malloc'd arrays.
type AddressSpace struct {
	next uint64
}

// NewAddressSpace starts allocating at base (rounded up to a page).
func NewAddressSpace(base uint64) *AddressSpace {
	mask := uint64(1)<<PageBits - 1
	return &AddressSpace{next: (base + mask) &^ mask}
}

// Alloc reserves size bytes under name and returns the region.
func (as *AddressSpace) Alloc(name string, size uint64) Region {
	mask := uint64(1)<<PageBits - 1
	sz := (size + mask) &^ mask
	if sz == 0 {
		sz = 1 << PageBits
	}
	r := Region{Name: name, Base: as.next, Size: sz}
	// One guard page between regions.
	as.next += sz + (1 << PageBits)
	return r
}

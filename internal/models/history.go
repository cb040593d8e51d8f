package models

// History is the online inference window a prefetcher maintains: the last T
// (block, PC) pairs in program order. It produces label-free Samples for
// model inference.
type History struct {
	T      int
	blocks []uint64
	pcs    []uint64
	count  int
}

// NewHistory builds a window of length T.
func NewHistory(T int) *History {
	return &History{T: T, blocks: make([]uint64, T), pcs: make([]uint64, T)}
}

// Push appends the newest access, evicting the oldest.
func (h *History) Push(block, pc uint64) {
	copy(h.blocks, h.blocks[1:])
	copy(h.pcs, h.pcs[1:])
	h.blocks[h.T-1] = block
	h.pcs[h.T-1] = pc
	if h.count < h.T {
		h.count++
	}
}

// Warm reports whether the window is fully populated.
func (h *History) Warm() bool { return h.count >= h.T }

// CurrentBlock returns the newest block in the window.
func (h *History) CurrentBlock() uint64 { return h.blocks[h.T-1] }

// SampleInto snapshots the window as an inference sample with the given phase
// label into a caller-owned scratch sample, reusing its slices (zero
// allocations once the scratch has warmed up). Label fields are cleared: the
// result is inference-only.
func (h *History) SampleInto(s *Sample, phase int) *Sample {
	s.Blocks = append(s.Blocks[:0], h.blocks...)
	s.PCs = append(s.PCs[:0], h.pcs...)
	s.Phase = phase
	s.DeltaBits, s.FuturePages, s.PageTok = nil, nil, 0
	return s
}

// SampleWithTailInto snapshots the window shifted by one with (block, pc)
// appended — the pseudo-window CSTP uses to continue a chain from a predicted
// page's PBOT entry — into a caller-owned scratch sample. Callers chaining
// CSTP predictions need a scratch distinct from any live SampleInto result.
func (h *History) SampleWithTailInto(s *Sample, phase int, block, pc uint64) *Sample {
	s.Blocks = append(s.Blocks[:0], h.blocks[1:]...)
	s.PCs = append(s.PCs[:0], h.pcs[1:]...)
	s.Blocks = append(s.Blocks, block)
	s.PCs = append(s.PCs, pc)
	s.Phase = phase
	s.DeltaBits, s.FuturePages, s.PageTok = nil, nil, 0
	return s
}

// Reset clears the window.
func (h *History) Reset() {
	h.count = 0
	for i := range h.blocks {
		h.blocks[i], h.pcs[i] = 0, 0
	}
}

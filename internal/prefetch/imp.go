package prefetch

import "mpgraph/internal/sim"

// IMPConfig parameterises the Indirect Memory Prefetcher.
type IMPConfig struct {
	// StreamPCs bounds the number of tracked streaming (index) PCs.
	StreamPCs int
	// Candidates bounds concurrent (coefficient, base) hypotheses per
	// indirect PC.
	Candidates int
	// Confidence is the hypothesis hit count required before prefetching.
	Confidence int
	// Degree is how many future index elements to prefetch through.
	Degree int
}

// DefaultIMPConfig mirrors the MICRO 2015 proposal at degree 6.
func DefaultIMPConfig() IMPConfig {
	return IMPConfig{StreamPCs: 64, Candidates: 4, Confidence: 2, Degree: 6}
}

// IMP models the Indirect Memory Prefetcher (Yu et al., MICRO 2015), the
// related-work baseline for A[B[i]]-style graph accesses: it detects
// sequential "index" streams (the B array), pairs them with an "indirect"
// PC whose addresses correlate as addr = coeff·index + base, and, once a
// hypothesis is confident, prefetches the indirect targets of upcoming
// index values.
//
// The block-granular LLC stream hides the index *values* real IMP reads
// from fill data, so this model approximates indices by the index stream's
// element slot: addr = coeff·slot + base. Linear slot-addressed indirect
// patterns (CSR offset walks) are covered; data-dependent jumps are not —
// matching the paper's observation that IMP-style rules cannot capture
// graph analytics' full irregularity.
type IMP struct {
	cfg IMPConfig
	// streams: per-PC sequential stream state (last block, run length,
	// slot counter).
	streams map[uint64]*impStream
	// bindings: indirect PC -> the stream PC it correlates with plus the
	// active linear hypotheses.
	bindings map[uint64]*impBinding
	lastPC   uint64
	out      []uint64
}

type impStream struct {
	lastBlock uint64
	run       int
	slot      int64
}

type impHypothesis struct {
	coeff, base int64
	hits        int
}

type impBinding struct {
	streamPC uint64
	prevSlot int64
	prevAddr uint64
	cands    []impHypothesis
}

// NewIMP builds the prefetcher.
func NewIMP(cfg IMPConfig) *IMP {
	return &IMP{cfg: cfg, streams: make(map[uint64]*impStream), bindings: make(map[uint64]*impBinding)}
}

// Name implements sim.Prefetcher.
func (p *IMP) Name() string { return "imp" }

// Operate implements sim.Prefetcher.
func (p *IMP) Operate(acc sim.LLCAccess) []uint64 {
	prevPC := p.lastPC
	p.lastPC = acc.PC

	// Track every PC's stream behaviour (sequential runs of delta 0/1 mark
	// an index stream); PCs beyond the tracking budget are ignored.
	st, ok := p.streams[acc.PC]
	if !ok {
		if len(p.streams) >= p.cfg.StreamPCs {
			return nil
		}
		p.streams[acc.PC] = &impStream{lastBlock: acc.Block}
		return nil
	}
	d := int64(acc.Block) - int64(st.lastBlock)
	st.lastBlock = acc.Block
	if d == 0 || d == 1 {
		st.run++
		st.slot++
	} else {
		st.run = 0
	}
	if st.run >= 2 {
		// This PC is acting as a sequential index stream itself.
		return nil
	}

	// Non-stream access right after a streaming PC: candidate indirect pair.
	ls, isStream := p.streams[prevPC]
	if !isStream || ls.run < 2 || prevPC == acc.PC {
		return nil
	}
	b, okB := p.bindings[acc.PC]
	if !okB {
		b = &impBinding{streamPC: prevPC, prevSlot: ls.slot, prevAddr: acc.Block}
		p.bindings[acc.PC] = b
		return nil
	}
	if b.streamPC != prevPC {
		return nil
	}
	// Update hypotheses with the (slot, addr) observation.
	dSlot := ls.slot - b.prevSlot
	if dSlot > 0 {
		coeff := (int64(acc.Block) - int64(b.prevAddr)) / dSlot
		base := int64(acc.Block) - coeff*ls.slot
		matched := false
		for i := range b.cands {
			if b.cands[i].coeff == coeff && b.cands[i].base == base {
				b.cands[i].hits++
				matched = true
				break
			}
		}
		if !matched {
			if len(b.cands) >= p.cfg.Candidates {
				// Evict the weakest hypothesis.
				weak := 0
				for i := range b.cands {
					if b.cands[i].hits < b.cands[weak].hits {
						weak = i
					}
				}
				b.cands[weak] = impHypothesis{coeff: coeff, base: base}
			} else {
				b.cands = append(b.cands, impHypothesis{coeff: coeff, base: base})
			}
		}
	}
	b.prevSlot, b.prevAddr = ls.slot, acc.Block

	// Prefetch through the confident hypothesis for upcoming index slots.
	var best *impHypothesis
	for i := range b.cands {
		if b.cands[i].hits >= p.cfg.Confidence && (best == nil || b.cands[i].hits > best.hits) {
			best = &b.cands[i]
		}
	}
	if best == nil || best.coeff == 0 {
		return nil
	}
	out := p.out[:0]
	for k := 1; k <= p.cfg.Degree; k++ {
		t := best.coeff*(ls.slot+int64(k)) + best.base
		if t < 0 {
			break
		}
		out = append(out, uint64(t))
	}
	p.out = out
	return out
}

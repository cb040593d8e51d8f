package prefetch

import "mpgraph/internal/sim"

// SMSConfig parameterises Spatial Memory Streaming.
type SMSConfig struct {
	// RegionBlocks is the spatial region size in blocks (power of two;
	// the original uses 2 KB regions = 32 blocks).
	RegionBlocks int
	// ActiveRegions bounds the active generation table.
	ActiveRegions int
	// PatternTable bounds the pattern history table.
	PatternTable int
	// MaxPrefetches caps the footprint replay per trigger.
	MaxPrefetches int
}

// DefaultSMSConfig mirrors the ISCA 2006 proposal with a degree-6 cap.
func DefaultSMSConfig() SMSConfig {
	return SMSConfig{RegionBlocks: 32, ActiveRegions: 64, PatternTable: 4096, MaxPrefetches: 6}
}

// SMS models Spatial Memory Streaming (Somogyi et al., ISCA 2006), a
// related-work spatial prefetcher: it learns, per (trigger PC, trigger
// offset) signature, the footprint bitmap of blocks a code region touches
// within a spatial region, and replays that footprint on the next trigger
// with the same signature.
type SMS struct {
	cfg SMSConfig

	// active generations: region -> accumulating footprint. At most
	// ActiveRegions are live, so a trigger that ends a generation reuses its
	// struct for the one it starts.
	active     map[uint64]*smsGeneration
	activeFIFO ring[uint64]

	// pattern history: signature -> footprint bitmap.
	patterns    map[uint64]uint64
	patternFIFO ring[uint64]

	out []uint64
}

type smsGeneration struct {
	signature uint64
	footprint uint64 // bit i = block i of the region was touched
}

// NewSMS builds the prefetcher.
func NewSMS(cfg SMSConfig) *SMS {
	if cfg.RegionBlocks <= 0 || cfg.RegionBlocks > 64 || cfg.RegionBlocks&(cfg.RegionBlocks-1) != 0 {
		cfg.RegionBlocks = 32
	}
	return &SMS{
		cfg:    cfg,
		active: make(map[uint64]*smsGeneration), activeFIFO: newRing[uint64](cfg.ActiveRegions),
		patterns: make(map[uint64]uint64), patternFIFO: newRing[uint64](cfg.PatternTable),
	}
}

// Name implements sim.Prefetcher.
func (p *SMS) Name() string { return "sms" }

func (p *SMS) region(block uint64) (region uint64, offset int) {
	return block / uint64(p.cfg.RegionBlocks), int(block % uint64(p.cfg.RegionBlocks))
}

func signature(pc uint64, offset int) uint64 {
	// The shift packs a (pc, first-offset) pair into one table key: offset
	// is < RegionBlocks <= 64, so 6 bits separate the two fields. It is key
	// hashing, not address geometry.
	return pc<<6 ^ uint64(offset) //mpgraph:allow addrhelpers -- packs a 6-bit region offset into a table key, not line geometry
}

// Operate implements sim.Prefetcher.
func (p *SMS) Operate(acc sim.LLCAccess) []uint64 {
	region, offset := p.region(acc.Block)
	gen, ok := p.active[region]
	if ok {
		gen.footprint |= 1 << offset
		return nil
	}

	// Region trigger: end the oldest generation if the table is full,
	// committing its footprint to the pattern table.
	old, full := p.activeFIFO.push(region)
	if full {
		gen = p.active[old]
		p.commit(gen)
		delete(p.active, old)
	} else {
		gen = new(smsGeneration)
	}
	sig := signature(acc.PC, offset)
	*gen = smsGeneration{signature: sig, footprint: 1 << offset}
	p.active[region] = gen

	// Replay the learned footprint for this signature.
	pattern, ok := p.patterns[sig]
	if !ok {
		return nil
	}
	base := region * uint64(p.cfg.RegionBlocks)
	out := p.out[:0]
	for b := 0; b < p.cfg.RegionBlocks && len(out) < p.cfg.MaxPrefetches; b++ {
		if b != offset && pattern&(1<<b) != 0 {
			out = append(out, base+uint64(b))
		}
	}
	p.out = out
	return out
}

// commit files a finished generation's footprint under its signature.
func (p *SMS) commit(gen *smsGeneration) {
	if _, exists := p.patterns[gen.signature]; !exists {
		if old, full := p.patternFIFO.push(gen.signature); full {
			delete(p.patterns, old)
		}
	}
	p.patterns[gen.signature] = gen.footprint
}

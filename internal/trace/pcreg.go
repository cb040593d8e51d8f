package trace

// PCRegistry assigns stable program-counter values to named static code
// sites. Real instrumentation (Intel Pin in the paper) reports the
// instruction address of each load/store; here every framework code site —
// "gpop.scatter.readVertex", "pg.gather.readEdge", ... — receives a fixed
// synthetic text address: the n-th distinct site to be used gets base +
// n*0x40. A framework's phases use disjoint sites, so its PCs cluster by
// phase (Fig. 2b) through the sites themselves, not through the addresses.
type PCRegistry struct {
	base  uint64
	step  uint64
	sites map[string]uint64
}

// NewPCRegistry creates a registry with code starting at base.
func NewPCRegistry(base uint64) *PCRegistry {
	return &PCRegistry{base: base, step: 0x40, sites: make(map[string]uint64)}
}

// PC returns the program counter for site, allocating one on first use.
func (r *PCRegistry) PC(site string) uint64 {
	if pc, ok := r.sites[site]; ok {
		return pc
	}
	pc := r.base + uint64(len(r.sites))*r.step
	r.sites[site] = pc
	return pc
}

package sim

// DRAM models main memory with a fixed access latency plus a shared-channel
// bandwidth constraint: each block transfer occupies a channel for
// ServiceCycles, so bursts queue behind each other.
//
// The controller gives demand reads priority over prefetch fills, as real
// memory controllers do: a demand request queues only behind other demand
// requests, while a prefetch queues behind everything. (Slightly optimistic
// — an in-flight prefetch transfer is treated as preemptible — but it
// captures the first-order behaviour: prefetch traffic must not head-of-
// line-block demand misses.)
type DRAM struct {
	// Latency is the unloaded access latency in core cycles
	// (tRP+tRCD+tCAS at 12.5ns each ≈ 150 cycles at 4 GHz).
	Latency uint64
	// ServiceCycles is the channel occupancy per 64-byte block.
	ServiceCycles uint64

	demandFree   uint64 // next cycle the channel is free of demand traffic
	prefetchFree uint64 // next cycle the channel is fully idle
	Requests     uint64
	QueueDelay   uint64 // total cycles demand requests spent queued
}

// Access schedules a demand block fetch starting no earlier than now and
// returns the cycle at which the data is available. Demand requests queue
// only behind other demand requests.
//
//mpgraph:noalloc
func (d *DRAM) Access(now uint64) (readyAt uint64) {
	d.Requests++
	start := now
	if d.demandFree > start {
		d.QueueDelay += d.demandFree - start
		start = d.demandFree
	}
	d.demandFree = start + d.ServiceCycles
	if d.prefetchFree < d.demandFree {
		d.prefetchFree = d.demandFree
	}
	return start + d.Latency
}

// AccessPrefetch schedules a low-priority prefetch fill: it waits for all
// queued demand and prefetch traffic.
//
//mpgraph:noalloc
func (d *DRAM) AccessPrefetch(now uint64) (readyAt uint64) {
	d.Requests++
	start := now
	if d.prefetchFree > start {
		start = d.prefetchFree
	}
	d.prefetchFree = start + d.ServiceCycles
	return start + d.Latency
}

// Reset clears scheduling state and counters.
func (d *DRAM) Reset() {
	d.demandFree, d.prefetchFree, d.Requests, d.QueueDelay = 0, 0, 0, 0
}

package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mpgraph/internal/trace"
)

// Config mirrors Table 3 of the paper. All latencies are in core cycles.
type Config struct {
	Cores int

	L1Sets, L1Ways   int
	L1Latency        uint64
	L2Sets, L2Ways   int
	L2Latency        uint64
	LLCSets, LLCWays int
	LLCLatency       uint64

	DRAMLatency       uint64
	DRAMServiceCycles uint64

	// IssueWidth is instructions retired per cycle when not stalled (4-wide
	// OoO in Table 3).
	IssueWidth int
	// MaxOutstanding bounds per-core overlapped long-latency misses (the
	// ROB/LSQ-induced memory-level parallelism limit).
	MaxOutstanding int
	// PrefetchQueueMax bounds prefetches in flight; excess requests drop.
	PrefetchQueueMax int
	// PrefetchLatency is added before every prefetch issues, modelling ML
	// model inference latency (Fig. 14 sweeps this).
	PrefetchLatency uint64
}

// DefaultConfig returns the Table 3 configuration.
func DefaultConfig() Config {
	return Config{
		Cores:       4,
		L1Sets:      256, // 64 KB / 64 B / 4 ways
		L1Ways:      4,
		L1Latency:   4,
		L2Sets:      1024, // 512 KB / 64 B / 8 ways
		L2Ways:      8,
		L2Latency:   10,
		LLCSets:     2048, // 2 MB / 64 B / 16 ways
		LLCWays:     16,
		LLCLatency:  20,
		DRAMLatency: 150, // 3 x 12.5 ns at 4 GHz
		// Channel occupancy per 64 B block. The trace generator compresses
		// non-memory work into small instruction gaps, so the per-cycle
		// memory intensity is several times a real instruction stream's;
		// the service time is scaled down accordingly (2 channels with
		// bank-level pipelining) to preserve the paper's latency-bound
		// regime rather than its nominal 8 GB/s figure (DESIGN.md §2).
		DRAMServiceCycles: 4,
		IssueWidth:        4,
		MaxOutstanding:    8,
		PrefetchQueueMax:  64,
	}
}

// Metrics aggregates one simulation run.
type Metrics struct {
	Prefetcher   string
	Instructions uint64
	Cycles       uint64

	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	LLCHits, LLCMisses uint64 // demand only

	PrefetchesIssued  uint64
	PrefetchesDropped uint64
	UsefulPrefetches  uint64 // prefetched lines demand-hit before eviction
	LatePrefetches    uint64 // demand arrived before the fill completed
	PollutedEvictions uint64 // never-used prefetched lines evicted

	DRAMRequests   uint64
	DRAMQueueDelay uint64
}

// IPC is instructions per cycle.
func (m Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// Accuracy is the fraction of issued prefetches that were useful.
func (m Metrics) Accuracy() float64 {
	if m.PrefetchesIssued == 0 {
		return 0
	}
	return float64(m.UsefulPrefetches) / float64(m.PrefetchesIssued)
}

// Coverage is the fraction of would-be LLC misses eliminated by prefetching:
// useful / (useful + remaining demand misses).
func (m Metrics) Coverage() float64 {
	den := m.UsefulPrefetches + m.LLCMisses
	if den == 0 {
		return 0
	}
	return float64(m.UsefulPrefetches) / float64(den)
}

// IPCImprovement is the relative IPC gain of m over the baseline run.
func (m Metrics) IPCImprovement(baseline Metrics) float64 {
	b := baseline.IPC()
	if b == 0 {
		return 0
	}
	return (m.IPC() - b) / b
}

func (m Metrics) String() string {
	return fmt.Sprintf("%s: IPC=%.4f acc=%.3f cov=%.3f issued=%d useful=%d llcMiss=%d",
		m.Prefetcher, m.IPC(), m.Accuracy(), m.Coverage(), m.PrefetchesIssued, m.UsefulPrefetches, m.LLCMisses)
}

// inflightPrefetch is a prefetch waiting to fill the LLC.
type inflightPrefetch struct {
	block   uint64
	readyAt uint64
}

// Engine is the trace-driven simulator.
type Engine struct {
	cfg  Config
	l1   []*Cache
	l2   []*Cache
	llc  *Cache
	dram DRAM

	coreTime []uint64
	// outstanding[c] holds the completion times of core c's in-flight long
	// misses in a fixed MaxOutstanding+1 window. It is only ever read as a
	// multiset (the minimum on overflow, the maximum in Finish), so it is
	// kept unordered.
	outstanding [][]uint64
	// inflight is the prefetch queue in issue order, allocated once at
	// PrefetchQueueMax. It is FIFO by construction: DRAM.AccessPrefetch
	// starts each fill no earlier than the last one plus ServiceCycles, so
	// queued readyAt never decrease in issue order, and an MSHR merge only
	// removes an entry. So the due fills are a prefix, and nextFill — the
	// head's readyAt, MaxUint64 when the queue is empty — is the first cycle
	// at which a Step has anything to drain.
	inflight []inflightPrefetch
	nextFill uint64

	// Cores and IssueWidth are run-time constants; when they are powers of two
	// the per-access modulo and divisions are a mask and a shift (coreMask and
	// issueShift are -1 otherwise, and the division stays).
	coreMask   int
	issueWidth uint64
	issueShift int

	pf      Prefetcher
	metrics Metrics
	// markedAt is the slowest core's clock at the last Mark (0 without one):
	// Finish counts Cycles from it.
	markedAt uint64

	// Recorder, when set, receives every demand access that reaches the LLC
	// along with its hit status — the "extract the shared LLC memory access
	// trace" step of the paper's workflow.
	Recorder func(acc trace.Access, hit bool)
}

// NewEngine builds an engine for cfg with prefetcher pf (nil means none).
func NewEngine(cfg Config, pf Prefetcher) (*Engine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: cores must be positive")
	}
	if pf == nil {
		pf = NoPrefetcher()
	}
	e := &Engine{cfg: cfg, pf: pf, nextFill: math.MaxUint64, coreMask: -1, issueWidth: uint64(cfg.IssueWidth), issueShift: -1}
	if cfg.Cores&(cfg.Cores-1) == 0 {
		e.coreMask = cfg.Cores - 1
	}
	if w := cfg.IssueWidth; w > 0 && w&(w-1) == 0 {
		e.issueShift = bits.TrailingZeros64(e.issueWidth)
	}
	for c := 0; c < cfg.Cores; c++ {
		l1, err := NewCache(fmt.Sprintf("l1d%d", c), cfg.L1Sets, cfg.L1Ways)
		if err != nil {
			return nil, err
		}
		l2, err := NewCache(fmt.Sprintf("l2%d", c), cfg.L2Sets, cfg.L2Ways)
		if err != nil {
			return nil, err
		}
		e.l1 = append(e.l1, l1)
		e.l2 = append(e.l2, l2)
	}
	llc, err := NewCache("llc", cfg.LLCSets, cfg.LLCWays)
	if err != nil {
		return nil, err
	}
	e.llc = llc
	e.dram = DRAM{Latency: cfg.DRAMLatency, ServiceCycles: cfg.DRAMServiceCycles}
	e.coreTime = make([]uint64, cfg.Cores)
	window := max(cfg.MaxOutstanding, 0) + 1
	slots := make([]uint64, cfg.Cores*window)
	e.outstanding = make([][]uint64, cfg.Cores)
	for c := range e.outstanding {
		e.outstanding[c] = slots[c*window : c*window : (c+1)*window]
	}
	e.inflight = make([]inflightPrefetch, 0, max(cfg.PrefetchQueueMax, 0))
	e.metrics.Prefetcher = pf.Name()
	if il, ok := pf.(InferenceLatency); ok && cfg.PrefetchLatency == 0 {
		e.cfg.PrefetchLatency = il.InferenceLatencyCycles()
	}
	return e, nil
}

// Run processes the whole access slice and returns the metrics.
func (e *Engine) Run(accesses []trace.Access) Metrics {
	for i := range accesses {
		e.Step(accesses[i])
	}
	return e.Finish()
}

// Step processes one access.
func (e *Engine) Step(a trace.Access) {
	c := int(a.Core)
	if e.coreMask >= 0 {
		c &= e.coreMask
	} else {
		c %= e.cfg.Cores
	}
	now := e.coreTime[c]

	// Retire the non-memory instructions preceding this access.
	instr := uint64(a.Gap) + 1
	e.metrics.Instructions += instr
	now += e.issueSlots(instr + e.issueWidth - 1)

	// Complete any inflight prefetch fills that are due.
	if now >= e.nextFill {
		e.drainPrefetches(now)
	}

	block := trace.Block(a.Addr)
	latency, longMiss := e.lookup(c, block, now, a)

	if longMiss {
		now = e.occupy(c, now+latency, now)
	} else {
		// Short-latency accesses retire within the window.
		now += e.issueSlots(latency)
	}
	e.coreTime[c] = now
}

// issueSlots is cycles / IssueWidth.
//
//mpgraph:noalloc
func (e *Engine) issueSlots(cycles uint64) uint64 {
	if e.issueShift >= 0 {
		return cycles >> (uint(e.issueShift) & 63)
	}
	return cycles / e.issueWidth
}

// occupy files a long miss completing at done in core c's MSHR window and
// returns the cycle the core proceeds at. The core stalls only when the
// window is full (memory-level parallelism model): the earliest outstanding
// completion then leaves the window, and the core waits for it.
//
//mpgraph:noalloc
func (e *Engine) occupy(c int, done, now uint64) uint64 {
	q := e.outstanding[c]
	q = q[:len(q)+1]
	q[len(q)-1] = done
	if len(q) > e.cfg.MaxOutstanding {
		first := 0
		for i, t := range q {
			if t < q[first] {
				first = i
			}
		}
		if q[first] > now {
			now = q[first]
		}
		q[first] = q[len(q)-1]
		q = q[:len(q)-1]
	}
	e.outstanding[c] = q
	return now
}

// lookup walks the hierarchy for a demand access, updating caches, issuing
// prefetcher work, and returning the access latency plus whether it is a
// long (LLC-or-beyond) miss that should occupy the overlap window.
func (e *Engine) lookup(c int, block uint64, now uint64, a trace.Access) (latency uint64, longMiss bool) {
	cfg := &e.cfg
	l1, l2 := e.l1[c], e.l2[c]
	// wasPrefetch is structurally false at L1/L2 — only the LLC holds
	// prefetched fills — so just the hit flag and the fill time matter
	// here. A hit on a line whose fill is still in flight (readyAt in the
	// future) pays the remaining fill time, mirroring the LLC's
	// late-prefetch handling.
	if hit, readyAt, _ := l1.Lookup(block); hit {
		e.metrics.L1Hits++
		lat := cfg.L1Latency
		if readyAt > now+lat {
			lat = readyAt - now
		}
		return lat, false
	}
	e.metrics.L1Misses++
	if hit, readyAt, _ := l2.Lookup(block); hit {
		e.metrics.L2Hits++
		lat := cfg.L2Latency
		if readyAt > now+lat {
			lat = readyAt - now
		}
		l1.Insert(block, false, now+lat)
		return lat, false
	}
	e.metrics.L2Misses++

	// The access reaches the shared LLC: record and train the prefetcher.
	llcHit, readyAt, wasPF := e.llc.Lookup(block)
	if e.Recorder != nil {
		e.Recorder(a, llcHit)
	}
	acc := LLCAccess{Block: block, PC: a.PC, Core: a.Core, Hit: llcHit, Write: a.Write, Phase: a.Phase}
	wanted := e.pf.Operate(acc)
	e.issuePrefetches(wanted, now)

	if llcHit {
		e.metrics.LLCHits++
		if wasPF {
			e.metrics.UsefulPrefetches++
		}
		lat := cfg.LLCLatency
		if readyAt > now+lat {
			// Late prefetch: the line is allocated but data not yet back.
			// The demand promotes the in-flight fill to demand priority: it
			// completes no later than an unloaded demand fetch would (the
			// data moves once, so no second transfer is charged).
			if promoted := now + cfg.DRAMLatency; promoted < readyAt {
				readyAt = promoted
			}
			if readyAt > now+lat {
				lat = readyAt - now
			}
			e.metrics.LatePrefetches++
		}
		l2.Insert(block, false, now+lat)
		l1.Insert(block, false, now+lat)
		// LLC hits are long enough that the ROB overlaps them like misses;
		// only L1/L2 hits retire serially.
		return lat, true
	}

	// MSHR merge: a demand miss whose block is already being prefetched
	// waits for that fill instead of re-fetching — a late but useful
	// prefetch that still hides part of the DRAM latency.
	for i := range e.inflight {
		if e.inflight[i].block == block {
			ready := e.inflight[i].readyAt
			e.inflight = append(e.inflight[:i], e.inflight[i+1:]...)
			e.nextFill = e.headReady()
			e.metrics.UsefulPrefetches++
			e.metrics.LatePrefetches++
			e.metrics.LLCHits++
			// Promotion: the merged demand raises the in-flight fill to
			// demand priority; it arrives no later than an unloaded demand
			// fetch (no second transfer is charged — the data moves once).
			if promoted := now + cfg.DRAMLatency; promoted < ready {
				ready = promoted
			}
			e.insertLLC(block, false, ready)
			lat := cfg.LLCLatency
			if ready > now {
				lat = ready - now + cfg.LLCLatency
			}
			l2.Insert(block, false, now+lat)
			l1.Insert(block, false, now+lat)
			return lat, true
		}
	}

	e.metrics.LLCMisses++
	ready := e.dram.Access(now)
	lat := (ready - now) + cfg.LLCLatency
	e.insertLLC(block, false, ready)
	l2.Insert(block, false, now+lat)
	l1.Insert(block, false, now+lat)
	return lat, true
}

// issuePrefetches files prefetch requests for the given block addresses.
//
//mpgraph:noalloc
func (e *Engine) issuePrefetches(blocks []uint64, now uint64) {
	for _, b := range blocks {
		n := len(e.inflight)
		if n >= e.cfg.PrefetchQueueMax {
			e.metrics.PrefetchesDropped++
			continue
		}
		if e.llc.Contains(b) {
			continue // already cached: not issued, not counted
		}
		dup := false
		for i := range e.inflight {
			if e.inflight[i].block == b {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		e.metrics.PrefetchesIssued++
		issueAt := now + e.cfg.PrefetchLatency
		ready := e.dram.AccessPrefetch(issueAt)
		e.inflight = e.inflight[:n+1]
		e.inflight[n] = inflightPrefetch{block: b, readyAt: ready}
		if n == 0 {
			e.nextFill = ready
		}
	}
}

// drainPrefetches fills the LLC, in queue order, with the prefetches whose
// data has arrived by now — the queue's prefix up to the first one still in
// flight — and moves the rest to the front.
//
//mpgraph:noalloc
func (e *Engine) drainPrefetches(now uint64) {
	due := 0
	for ; due < len(e.inflight) && e.inflight[due].readyAt <= now; due++ {
		e.insertLLC(e.inflight[due].block, true, e.inflight[due].readyAt)
	}
	e.inflight = e.inflight[:copy(e.inflight, e.inflight[due:])]
	e.nextFill = e.headReady()
}

// headReady is the queue head's readyAt, MaxUint64 when the queue is empty.
//
//mpgraph:noalloc
func (e *Engine) headReady() uint64 {
	if len(e.inflight) == 0 {
		return math.MaxUint64
	}
	return e.inflight[0].readyAt
}

// insertLLC fills the shared cache and counts a polluted eviction.
//
//mpgraph:noalloc
func (e *Engine) insertLLC(block uint64, prefetched bool, readyAt uint64) {
	// The victim's identity and validity are deliberately unused: the
	// engine models no writeback traffic, so an evicted block costs
	// nothing; pollution accounting only needs the never-referenced
	// prefetch flag.
	_, _, unusedPF := e.llc.Insert(block, prefetched, readyAt) //mpgraph:allow errdrop -- no writeback modelling, victim identity is irrelevant
	if unusedPF {
		e.metrics.PollutedEvictions++
	}
}

// Mark ends the warm-up. The counters, the DRAM channel's included, restart
// from zero and Finish counts Cycles from the slowest core's clock here; the
// caches, the MSHR windows, the DRAM channel's timing and the prefetch queue
// keep their state, so misses in flight at the mark finish inside the
// measurement.
func (e *Engine) Mark() {
	e.markedAt = slices.Max(e.coreTime)
	e.metrics = Metrics{Prefetcher: e.metrics.Prefetcher}
	e.dram.Requests, e.dram.QueueDelay = 0, 0
}

// Finish computes the cycle count since the last Mark (the slowest core,
// including its outstanding misses) and returns the metrics.
func (e *Engine) Finish() Metrics {
	maxTime := slices.Max(e.coreTime)
	for _, q := range e.outstanding {
		for _, t := range q {
			if t > maxTime {
				maxTime = t
			}
		}
	}
	e.metrics.Cycles = maxTime - e.markedAt
	e.metrics.DRAMRequests = e.dram.Requests
	e.metrics.DRAMQueueDelay = e.dram.QueueDelay
	return e.metrics
}

package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// referenceEngine is sim.Engine as it stood before the host-cost pass: the
// MSHR window sorted with sort.Slice on every overflow, the in-flight queue
// walked on every access, a modulo and two divisions per Step, append-grown
// queues. Step, lookup, issuePrefetches, drainPrefetches, insertLLC and
// Finish are that code verbatim; the only additions are the three counters
// the oracle uses to prove it reached the paths it is about (they feed
// nothing back). It shares sim.Cache and sim.DRAM with the engine under test.
type referenceEngine struct {
	cfg  sim.Config
	l1   []*sim.Cache
	l2   []*sim.Cache
	llc  *sim.Cache
	dram sim.DRAM

	coreTime    []uint64
	outstanding [][]uint64
	inflight    []inflightPrefetch

	pf       sim.Prefetcher
	metrics  sim.Metrics
	Recorder func(acc trace.Access, hit bool)

	fullWindows, merges, lateHits int
}

type inflightPrefetch struct {
	block   uint64
	readyAt uint64
}

func newReferenceEngine(t *testing.T, cfg sim.Config, pf sim.Prefetcher) *referenceEngine {
	t.Helper()
	mk := func(sets, ways int) *sim.Cache {
		c, err := sim.NewCache("ref", sets, ways)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	e := &referenceEngine{cfg: cfg, pf: pf, llc: mk(cfg.LLCSets, cfg.LLCWays)}
	for c := 0; c < cfg.Cores; c++ {
		e.l1 = append(e.l1, mk(cfg.L1Sets, cfg.L1Ways))
		e.l2 = append(e.l2, mk(cfg.L2Sets, cfg.L2Ways))
	}
	e.dram = sim.DRAM{Latency: cfg.DRAMLatency, ServiceCycles: cfg.DRAMServiceCycles}
	e.coreTime = make([]uint64, cfg.Cores)
	e.outstanding = make([][]uint64, cfg.Cores)
	e.metrics.Prefetcher = pf.Name()
	return e
}

// Step processes one access.
func (e *referenceEngine) Step(a trace.Access) {
	c := int(a.Core) % e.cfg.Cores
	now := e.coreTime[c]

	// Retire the non-memory instructions preceding this access.
	instr := uint64(a.Gap) + 1
	e.metrics.Instructions += instr
	now += (instr + uint64(e.cfg.IssueWidth) - 1) / uint64(e.cfg.IssueWidth)

	// Complete any inflight prefetch fills that are due.
	e.drainPrefetches(now)

	block := trace.Block(a.Addr)
	latency, longMiss := e.lookup(c, block, now, a)

	if longMiss {
		// The miss occupies an MSHR; the core stalls only when the
		// outstanding window is full (memory-level parallelism model).
		q := e.outstanding[c]
		q = append(q, now+latency)
		if len(q) > e.cfg.MaxOutstanding {
			sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
			e.fullWindows++
			head := q[0]
			q = q[1:]
			if head > now {
				now = head
			}
		}
		e.outstanding[c] = q
	} else {
		// Short-latency accesses retire within the window.
		now += latency / uint64(e.cfg.IssueWidth)
	}
	e.coreTime[c] = now
}

// lookup walks the hierarchy for a demand access, updating caches, issuing
// prefetcher work, and returning the access latency plus whether it is a
// long (LLC-or-beyond) miss that should occupy the overlap window.
func (e *referenceEngine) lookup(c int, block uint64, now uint64, a trace.Access) (latency uint64, longMiss bool) {
	cfg := &e.cfg
	// wasPrefetch is structurally false at L1/L2 — only the LLC holds
	// prefetched fills — so just the hit flag and the fill time matter
	// here. A hit on a line whose fill is still in flight (readyAt in the
	// future) pays the remaining fill time, mirroring the LLC's
	// late-prefetch handling.
	if hit, readyAt, _ := e.l1[c].Lookup(block); hit {
		e.metrics.L1Hits++
		lat := cfg.L1Latency
		if readyAt > now+lat {
			lat = readyAt - now
		}
		return lat, false
	}
	e.metrics.L1Misses++
	if hit, readyAt, _ := e.l2[c].Lookup(block); hit {
		e.metrics.L2Hits++
		lat := cfg.L2Latency
		if readyAt > now+lat {
			lat = readyAt - now
		}
		e.l1[c].Insert(block, false, now+lat)
		return lat, false
	}
	e.metrics.L2Misses++

	// The access reaches the shared LLC: record and train the prefetcher.
	llcHit, readyAt, wasPF := e.llc.Lookup(block)
	if e.Recorder != nil {
		e.Recorder(a, llcHit)
	}
	acc := sim.LLCAccess{Block: block, PC: a.PC, Core: a.Core, Hit: llcHit, Write: a.Write, Phase: a.Phase}
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
			e.lateHits++
		}
		e.l2[c].Insert(block, false, now+lat)
		e.l1[c].Insert(block, false, now+lat)
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
			e.metrics.UsefulPrefetches++
			e.metrics.LatePrefetches++
			e.metrics.LLCHits++
			e.merges++
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
			e.l2[c].Insert(block, false, now+lat)
			e.l1[c].Insert(block, false, now+lat)
			return lat, true
		}
	}

	e.metrics.LLCMisses++
	ready := e.dram.Access(now)
	lat := (ready - now) + cfg.LLCLatency
	e.insertLLC(block, false, ready)
	e.l2[c].Insert(block, false, now+lat)
	e.l1[c].Insert(block, false, now+lat)
	return lat, true
}

// issuePrefetches files prefetch requests for the given block addresses.
func (e *referenceEngine) issuePrefetches(blocks []uint64, now uint64) {
	for _, b := range blocks {
		if len(e.inflight) >= e.cfg.PrefetchQueueMax {
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
		e.inflight = append(e.inflight, inflightPrefetch{block: b, readyAt: ready})
	}
}

// drainPrefetches fills the LLC with prefetches whose data has arrived.
func (e *referenceEngine) drainPrefetches(now uint64) {
	if len(e.inflight) == 0 {
		return
	}
	kept := e.inflight[:0]
	for _, p := range e.inflight {
		if p.readyAt <= now {
			e.insertLLC(p.block, true, p.readyAt)
		} else {
			kept = append(kept, p)
		}
	}
	e.inflight = kept
}

func (e *referenceEngine) insertLLC(block uint64, prefetched bool, readyAt uint64) {
	// The victim's identity and validity are deliberately unused: the
	// engine models no writeback traffic, so an evicted block costs
	// nothing; pollution accounting only needs the never-referenced
	// prefetch flag.
	_, _, unusedPF := e.llc.Insert(block, prefetched, readyAt)
	if unusedPF {
		e.metrics.PollutedEvictions++
	}
}

// Finish computes the final cycle count (the slowest core, including its
// outstanding misses) and returns the metrics.
func (e *referenceEngine) Finish() sim.Metrics {
	maxTime := uint64(0)
	for _, t := range e.coreTime {
		if t > maxTime {
			maxTime = t
		}
	}
	for _, q := range e.outstanding {
		for _, t := range q {
			if t > maxTime {
				maxTime = t
			}
		}
	}
	e.metrics.Cycles = maxTime
	e.metrics.DRAMRequests = e.dram.Requests
	e.metrics.DRAMQueueDelay = e.dram.QueueDelay
	return e.metrics
}

// scripted is the oracle's adversarial prefetcher. Each call returns, in one
// reused buffer (the engine must consume it before the next call): a near
// block twice, a recently demanded block (most likely cached already), the
// far block of the previous call (most likely still in flight), a new far
// block, and now and then a run long enough to overflow a small queue.
type scripted struct {
	rng     *rand.Rand
	recent  [4]uint64
	n       int
	lastFar uint64
	out     []uint64
}

func (*scripted) Name() string { return "scripted" }

func (s *scripted) Operate(a sim.LLCAccess) []uint64 {
	out := s.out[:0]
	if s.rng.Intn(8) == 0 {
		out = nil
	} else {
		far := a.Block + 1<<20 + uint64(s.rng.Intn(1<<10))
		out = append(out, a.Block+1, a.Block+1, s.recent[s.rng.Intn(len(s.recent))], s.lastFar, far)
		s.lastFar = far
		if s.rng.Intn(4) == 0 {
			for d := uint64(2); d < 10; d++ {
				out = append(out, a.Block+d)
			}
		}
		s.out = out
	}
	s.recent[s.n%len(s.recent)] = a.Block
	s.n++
	return out
}

// silent observes everything and prefetches nothing.
type silent struct{ seen int }

func (*silent) Name() string { return "none" }
func (s *silent) Operate(sim.LLCAccess) []uint64 {
	s.seen++
	return nil
}

// oracleTrace mixes, over eight core ids (so every Cores value folds some),
// per-core sequential streams (what BO and the near blocks cover), a hot set
// that fits the private caches, and wide random blocks that evict.
func oracleTrace(seed int64, n int) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	var stream [8]uint64
	for c := range stream {
		stream[c] = uint64(c+1) << 14
	}
	out := make([]trace.Access, n)
	for i := range out {
		core := rng.Intn(len(stream))
		var block uint64
		switch r := rng.Intn(10); {
		case r < 5:
			stream[core] += uint64(1 + rng.Intn(2))
			block = stream[core]
		case r < 7:
			block = uint64(rng.Intn(48))
		default:
			block = uint64(rng.Intn(1 << 12))
		}
		out[i] = trace.Access{
			Addr:  trace.BlockAddr(block) + uint64(rng.Intn(64)),
			PC:    0x400000 + 0x40*uint64(rng.Intn(5)),
			Core:  uint8(core),
			Gap:   uint8(rng.Intn(8)),
			Write: rng.Intn(4) == 0,
		}
	}
	return out
}

// evictingConfig is Table 3 with caches small enough (64 LLC lines) that
// oracleTrace evicts at every level.
func evictingConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 8, 2
	cfg.LLCSets, cfg.LLCWays = 16, 4
	return cfg
}

type recorded struct {
	acc trace.Access
	hit bool
}

// TestEngineMatchesReference holds the engine to referenceEngine on seeded
// random traces over the whole grid of the parameters the host-cost pass
// reads: every Metrics field and the Recorder's (access, hit) sequence must be
// equal. Cores and IssueWidth take powers of two and 3, so both the mask/shift
// and the division run.
func TestEngineMatchesReference(t *testing.T) {
	accesses, seeds := 1500, []int64{1, 2}
	if raceDetectorEnabled {
		accesses, seeds = 500, seeds[:1]
	}
	prefetchers := []struct {
		name string
		new  func() sim.Prefetcher
	}{
		{"none", sim.NoPrefetcher},
		{"bo", func() sim.Prefetcher { return prefetch.NewBO(prefetch.DefaultBOConfig()) }},
		{"scripted", func() sim.Prefetcher { return &scripted{rng: rand.New(rand.NewSource(7))} }},
	}
	var fullWindows, merges, lateHits int
	var dropped, polluted uint64
	for _, seed := range seeds {
		tr := oracleTrace(seed, accesses)
		for _, cores := range []int{1, 3, 4} {
			for _, width := range []int{1, 3, 4} {
				for _, window := range []int{1, 2, 8} {
					for _, queue := range []int{1, 4, 64} {
						for _, latency := range []uint64{0, 200} {
							for _, p := range prefetchers {
								cfg := evictingConfig()
								cfg.Cores, cfg.IssueWidth, cfg.MaxOutstanding = cores, width, window
								cfg.PrefetchQueueMax, cfg.PrefetchLatency = queue, latency
								ref := newReferenceEngine(t, cfg, p.new())
								eng, err := sim.NewEngine(cfg, p.new())
								if err != nil {
									t.Fatal(err)
								}
								var wantRec, gotRec []recorded
								ref.Recorder = func(a trace.Access, hit bool) { wantRec = append(wantRec, recorded{a, hit}) }
								eng.Recorder = func(a trace.Access, hit bool) { gotRec = append(gotRec, recorded{a, hit}) }
								for _, a := range tr {
									ref.Step(a)
									eng.Step(a)
								}
								want, got := ref.Finish(), eng.Finish()
								if got != want {
									t.Fatalf("seed %d %s %+v:\n got %+v\nwant %+v", seed, p.name, cfg, got, want)
								}
								if !slices.Equal(gotRec, wantRec) {
									t.Fatalf("seed %d %s %+v: LLC streams differ (%d vs %d accesses)", seed, p.name, cfg, len(gotRec), len(wantRec))
								}
								if a, c := got.Accuracy(), got.Coverage(); a < 0 || a > 1 || c < 0 || c > 1 {
									t.Fatalf("seed %d %s %+v: accuracy %v, coverage %v outside [0,1]", seed, p.name, cfg, a, c)
								}
								if p.name == "none" && got.PrefetchesIssued+got.PrefetchesDropped != 0 {
									t.Fatalf("baseline issued %d, dropped %d", got.PrefetchesIssued, got.PrefetchesDropped)
								}
								fullWindows += ref.fullWindows
								merges += ref.merges
								lateHits += ref.lateHits
								dropped += want.PrefetchesDropped
								polluted += want.PollutedEvictions
							}
						}
					}
				}
			}
		}
	}
	t.Logf("full windows %d, MSHR merges %d, late LLC hits %d, dropped %d, polluted %d", fullWindows, merges, lateHits, dropped, polluted)
	if fullWindows == 0 || merges == 0 || lateHits == 0 || dropped == 0 || polluted == 0 {
		t.Fatalf("vacuous: full windows %d, MSHR merges %d, late LLC hits %d, dropped %d, polluted %d — each must be reached",
			fullWindows, merges, lateHits, dropped, polluted)
	}
}

// TestPrefetchQueueIsFIFO: on random traces and configs (DRAM service time 0
// included) the prefetch queue's readyAt never decrease in issue order after
// any Step, and nextFill is the head's readyAt — what lets the engine drain a
// prefix and skip the queue below nextFill.
func TestPrefetchQueueIsFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var deep, late int
	for trial := 0; trial < 24; trial++ {
		cfg := evictingConfig()
		cfg.Cores, cfg.IssueWidth, cfg.MaxOutstanding = 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(8)
		cfg.PrefetchQueueMax = 1 + rng.Intn(64)
		cfg.PrefetchLatency = uint64(rng.Intn(400))
		cfg.DRAMLatency, cfg.DRAMServiceCycles = 50+uint64(rng.Intn(300)), uint64(rng.Intn(40))
		eng, err := sim.NewEngine(cfg, &scripted{rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatal(err)
		}
		var q []uint64
		for i, a := range oracleTrace(int64(100+trial), 1000) {
			eng.Step(a)
			var next uint64
			q, next = eng.QueuedReadyAt(q[:0])
			for j := 1; j < len(q); j++ {
				if q[j] < q[j-1] {
					t.Fatalf("trial %d %+v, step %d: readyAt %d after %d at queue position %d", trial, cfg, i, q[j], q[j-1], j)
				}
			}
			head := uint64(math.MaxUint64)
			if len(q) > 0 {
				head = q[0]
			}
			if next != head {
				t.Fatalf("trial %d, step %d: nextFill %d, head readyAt %d", trial, i, next, head)
			}
			if len(q) > 1 {
				deep++
			}
		}
		if eng.Finish().LatePrefetches > 0 {
			late++ // late LLC hits and MSHR merges, which remove an entry
		}
	}
	if deep == 0 || late == 0 {
		t.Fatalf("vacuous: %d steps left two or more fills queued, %d trials had late prefetches", deep, late)
	}
}

// TestSilentPrefetcherIsBaseline: a prefetcher that observes everything and
// returns nothing leaves every Metrics field where NoPrefetcher leaves it.
func TestSilentPrefetcherIsBaseline(t *testing.T) {
	tr := oracleTrace(3, 20000)
	base, err := sim.NewEngine(sim.DefaultConfig(), sim.NoPrefetcher())
	if err != nil {
		t.Fatal(err)
	}
	pf := &silent{}
	eng, err := sim.NewEngine(sim.DefaultConfig(), pf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Run(tr), base.Run(tr); got != want {
		t.Fatalf("silent prefetcher moved the metrics:\n got %+v\nwant %+v", got, want)
	}
	if pf.seen == 0 {
		t.Fatal("vacuous: the prefetcher saw no LLC access")
	}
}

// TestMarkIsRunDifference: stepping W accesses, marking and running S counts
// what the unmarked run over W ++ S counts beyond the unmarked run over W,
// counter for counter. Cycles count from the slowest core's clock at the
// mark, so they may exceed that difference by the tail of the misses still
// outstanding there (OutstandingTail), and by no more. A mark before the
// first Step (W = 0) gives the unmarked Metrics exactly.
func TestMarkIsRunDifference(t *testing.T) {
	tr := oracleTrace(5, 4000)
	newEngine := func() *sim.Engine {
		eng, err := sim.NewEngine(evictingConfig(), &scripted{rng: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	rng := rand.New(rand.NewSource(13))
	var tails, overshoots int
	for trial := 0; trial < 40; trial++ {
		w := rng.Intn(len(tr))
		if trial < 2 {
			w = 0
		}
		s := 1 + rng.Intn(len(tr)-w)
		eng := newEngine()
		for _, a := range tr[:w] {
			eng.Step(a)
		}
		tail := eng.OutstandingTail()
		eng.Mark()
		got := eng.Run(tr[w : w+s])
		full, warm := newEngine().Run(tr[:w+s]), newEngine().Run(tr[:w])
		if w == 0 && got != full {
			t.Fatalf("mark before the first Step:\n got %#v\nwant %#v", got, full)
		}
		want := full
		wv, pv := reflect.ValueOf(&want).Elem(), reflect.ValueOf(warm)
		for i := 0; i < wv.NumField(); i++ {
			if f := wv.Field(i); f.Kind() == reflect.Uint64 {
				f.SetUint(f.Uint() - pv.Field(i).Uint())
			}
		}
		if got.Cycles < want.Cycles || got.Cycles-want.Cycles > tail {
			t.Fatalf("W=%d S=%d: %d cycles after the mark, %d by difference: outside [0, %d], the tail outstanding at the mark",
				w, s, got.Cycles, want.Cycles, tail)
		}
		if tail > 0 {
			tails++
		}
		if got.Cycles != want.Cycles {
			overshoots++
		}
		got.Cycles = want.Cycles
		if got != want {
			t.Fatalf("W=%d S=%d: marked run\n got %#v\nwant %#v (run over W ++ S less run over W)", w, s, got, want)
		}
	}
	t.Logf("%d of 40 marks had misses outstanding past the slowest clock, %d moved Cycles", tails, overshoots)
	if tails == 0 || overshoots == 0 {
		t.Fatal("vacuous: no mark left a tail that moved Cycles")
	}
}

// TestEngineStepZeroAlloc: a warmed engine steps without allocating, with no
// prefetcher and with BO (whose Operate returns its own buffer). A run is a
// whole lap of the trace — AllocsPerRun reports an integral average, which
// would round an allocation per LLC access down to 0 over single Steps.
func TestEngineStepZeroAlloc(t *testing.T) {
	tr := oracleTrace(4, 1<<14)
	for _, pf := range []sim.Prefetcher{sim.NoPrefetcher(), prefetch.NewBO(prefetch.DefaultBOConfig())} {
		eng, err := sim.NewEngine(evictingConfig(), pf)
		if err != nil {
			t.Fatal(err)
		}
		lap := func() {
			for _, a := range tr {
				eng.Step(a)
			}
		}
		lap()
		eng.Mark()
		if allocs := testing.AllocsPerRun(3, lap); allocs != 0 {
			t.Fatalf("%s: %d Engine.Steps allocate %.0f times, want 0", pf.Name(), len(tr), allocs)
		}
		if m := eng.Finish(); m.LLCMisses == 0 || (pf.Name() == "bo" && m.PrefetchesIssued == 0) {
			t.Fatalf("%s: vacuous: the measured laps missed %d times and issued %d prefetches",
				pf.Name(), m.LLCMisses, m.PrefetchesIssued)
		}
	}
}

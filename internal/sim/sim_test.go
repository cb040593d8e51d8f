package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpgraph/internal/trace"
)

func TestCacheGeometry(t *testing.T) {
	c, err := NewCache("x", 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.SizeBytes() != 64*1024 {
		t.Fatalf("size = %d, want 64KB", c.SizeBytes())
	}
	if _, err := NewCache("bad", 100, 4); err == nil {
		t.Fatal("non power-of-two sets must fail")
	}
	if _, err := NewCache("bad", 64, 0); err == nil {
		t.Fatal("zero ways must fail")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, _ := NewCache("x", 4, 2)
	if hit, _, _ := c.Lookup(100); hit {
		t.Fatal("cold lookup must miss")
	}
	c.Insert(100, false, 0)
	if hit, _, _ := c.Lookup(100); !hit {
		t.Fatal("lookup after insert must hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := NewCache("x", 1, 2) // one set, two ways
	c.Insert(1, false, 0)
	c.Insert(2, false, 0)
	c.Lookup(1) // make 2 the LRU
	ev, valid, _ := c.Insert(3, false, 0)
	if !valid || ev != 2 {
		t.Fatalf("evicted %d (valid=%v), want 2", ev, valid)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestCachePrefetchFlag(t *testing.T) {
	c, _ := NewCache("x", 4, 2)
	c.Insert(8, true, 50)
	hit, ready, wasPF := c.Lookup(8)
	if !hit || !wasPF || ready != 50 {
		t.Fatalf("prefetched lookup = %v,%d,%v", hit, ready, wasPF)
	}
	// Second demand touch is no longer "first use of prefetch".
	_, _, wasPF = c.Lookup(8)
	if wasPF {
		t.Fatal("prefetch flag must clear on first demand touch")
	}
}

func TestCacheUnusedPrefetchEviction(t *testing.T) {
	c, _ := NewCache("x", 1, 1)
	c.Insert(1, true, 0)
	_, _, unused := c.Insert(2, false, 0)
	if !unused {
		t.Fatal("evicting never-used prefetch must be flagged")
	}
	c.Insert(3, true, 0)
	c.Lookup(3)
	_, _, unused = c.Insert(4, false, 0)
	if unused {
		t.Fatal("used prefetch eviction must not be flagged")
	}
}

func TestCacheDuplicateInsert(t *testing.T) {
	c, _ := NewCache("x", 1, 2)
	c.Insert(5, true, 100)
	c.Insert(5, false, 40) // demand fill of same block
	hit, ready, wasPF := c.Lookup(5)
	if !hit || wasPF || ready != 40 {
		t.Fatalf("duplicate insert: hit=%v ready=%d wasPF=%v", hit, ready, wasPF)
	}
}

// Property: a cache never holds more than ways copies mapping to one set,
// and Contains agrees with Lookup.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(blocks []uint64) bool {
		c, _ := NewCache("q", 8, 2)
		for _, b := range blocks {
			b %= 64
			if c.Contains(b) {
				hit, _, _ := c.Lookup(b)
				if !hit {
					return false
				}
			} else {
				c.Insert(b, false, 0)
				if !c.Contains(b) {
					return false
				}
			}
		}
		// Count valid lines per set.
		for s := 0; s < 8; s++ {
			n := 0
			for b := uint64(0); b < 64; b++ {
				if int(b)&7 == s && c.Contains(b) {
					n++
				}
			}
			if n > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMQueueing(t *testing.T) {
	d := DRAM{Latency: 100, ServiceCycles: 16}
	r1 := d.Access(0)
	r2 := d.Access(0)
	if r1 != 100 {
		t.Fatalf("first access ready at %d, want 100", r1)
	}
	if r2 != 116 {
		t.Fatalf("second access must queue: ready %d, want 116", r2)
	}
	if d.QueueDelay != 16 {
		t.Fatalf("queue delay %d, want 16", d.QueueDelay)
	}
	// After the channel drains, no queueing.
	r3 := d.Access(1000)
	if r3 != 1100 {
		t.Fatalf("idle access ready %d, want 1100", r3)
	}
}

func TestDRAMDemandPriority(t *testing.T) {
	d := DRAM{Latency: 100, ServiceCycles: 16}
	// A burst of prefetches must not delay a demand request...
	for i := 0; i < 10; i++ {
		d.AccessPrefetch(0)
	}
	if r := d.Access(0); r != 100 {
		t.Fatalf("demand delayed by prefetch burst: ready %d, want 100", r)
	}
	// ...but prefetches queue behind demand traffic.
	d.Reset()
	d.Access(0) // demandFree=16, prefetchFree=16
	if r := d.AccessPrefetch(0); r != 116 {
		t.Fatalf("prefetch must yield to demand: ready %d, want 116", r)
	}
	// And prefetches queue behind each other.
	if r := d.AccessPrefetch(0); r != 132 {
		t.Fatalf("prefetch self-queueing: ready %d, want 132", r)
	}
	d.Reset()
	if d.Requests != 0 {
		t.Fatal("reset")
	}
}

// seqTrace builds a sequential one-core stream over n distinct blocks.
func seqTrace(n int) []trace.Access {
	out := make([]trace.Access, n)
	for i := range out {
		out[i] = trace.Access{Addr: uint64(i) * 64, PC: 0x400000, Gap: 2}
	}
	return out
}

// nextLine is a trivial test prefetcher.
type nextLine struct{ degree int }

func (nextLine) Name() string { return "nextline" }
func (p nextLine) Operate(a LLCAccess) []uint64 {
	var out []uint64
	for d := 1; d <= p.degree; d++ {
		out = append(out, a.Block+uint64(d))
	}
	return out
}

func TestEngineBasics(t *testing.T) {
	cfg := DefaultConfig()
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := e.Run(seqTrace(10000))
	if m.Instructions == 0 || m.Cycles == 0 {
		t.Fatal("no work simulated")
	}
	if m.IPC() <= 0 || m.IPC() > float64(cfg.IssueWidth) {
		t.Fatalf("IPC %.3f out of range", m.IPC())
	}
	// A cold sequential stream of distinct blocks misses everywhere.
	if m.LLCMisses == 0 {
		t.Fatal("expected LLC misses on cold stream")
	}
	if m.Prefetcher != "none" {
		t.Fatalf("prefetcher name %q", m.Prefetcher)
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	if _, err := NewEngine(Config{}, nil); err == nil {
		t.Fatal("zero cores must fail")
	}
	cfg := DefaultConfig()
	cfg.L1Sets = 3
	if _, err := NewEngine(cfg, nil); err == nil {
		t.Fatal("bad cache geometry must fail")
	}
}

func TestPrefetchingImprovesSequentialIPC(t *testing.T) {
	tr := seqTrace(50000)
	cfg := DefaultConfig()
	base, _ := NewEngine(cfg, nil)
	mb := base.Run(tr)
	pf, _ := NewEngine(cfg, nextLine{degree: 4})
	mp := pf.Run(tr)
	if mp.PrefetchesIssued == 0 {
		t.Fatal("no prefetches issued")
	}
	if mp.Accuracy() < 0.8 {
		t.Fatalf("next-line accuracy on sequential stream = %.3f, want high", mp.Accuracy())
	}
	if mp.Coverage() < 0.5 {
		t.Fatalf("coverage = %.3f, want substantial", mp.Coverage())
	}
	if mp.IPCImprovement(mb) <= 0 {
		t.Fatalf("IPC must improve: base %.4f, pf %.4f", mb.IPC(), mp.IPC())
	}
}

func TestUselessPrefetchesHurtAccuracy(t *testing.T) {
	// Random-stride stream: next-line prefetches are useless.
	rng := rand.New(rand.NewSource(5))
	var tr []trace.Access
	for i := 0; i < 20000; i++ {
		tr = append(tr, trace.Access{Addr: uint64(rng.Intn(1<<22)) * 64 * 7, Gap: 2})
	}
	e, _ := NewEngine(DefaultConfig(), nextLine{degree: 2})
	m := e.Run(tr)
	if m.Accuracy() > 0.2 {
		t.Fatalf("accuracy on random stream = %.3f, want low", m.Accuracy())
	}
	if m.PollutedEvictions == 0 {
		t.Fatal("useless prefetches should pollute")
	}
}

func TestCacheHierarchyFiltering(t *testing.T) {
	// Re-touching a tiny working set should be absorbed by L1 after the
	// first pass: LLC sees each block roughly once.
	var tr []trace.Access
	for pass := 0; pass < 10; pass++ {
		for b := 0; b < 64; b++ {
			tr = append(tr, trace.Access{Addr: uint64(b) * 64, Gap: 1})
		}
	}
	e, _ := NewEngine(DefaultConfig(), nil)
	m := e.Run(tr)
	if m.LLCMisses > 70 {
		t.Fatalf("LLC demand misses %d; L1 should filter re-touches", m.LLCMisses)
	}
	if m.L1Hits < 500 {
		t.Fatalf("L1 hits %d, want most accesses", m.L1Hits)
	}
}

func TestRecorderCapturesLLCStream(t *testing.T) {
	tr := seqTrace(5000)
	e, _ := NewEngine(DefaultConfig(), nil)
	var captured []trace.Access
	e.Recorder = func(a trace.Access, hit bool) { captured = append(captured, a) }
	m := e.Run(tr)
	if uint64(len(captured)) != m.LLCHits+m.LLCMisses {
		t.Fatalf("recorder saw %d accesses, LLC stats say %d", len(captured), m.LLCHits+m.LLCMisses)
	}
	if len(captured) == 0 {
		t.Fatal("recorder captured nothing")
	}
}

func TestPrefetchLatencyDelaysFills(t *testing.T) {
	tr := seqTrace(30000)
	cfg := DefaultConfig()
	fast, _ := NewEngine(cfg, nextLine{degree: 2})
	mf := fast.Run(tr)
	cfg.PrefetchLatency = 2000 // absurdly slow model
	slow, _ := NewEngine(cfg, nextLine{degree: 2})
	ms := slow.Run(tr)
	if ms.IPC() >= mf.IPC() {
		t.Fatalf("huge inference latency must hurt: fast %.4f slow %.4f", mf.IPC(), ms.IPC())
	}
}

type fixedLatencyPF struct{ nextLine }

func (fixedLatencyPF) InferenceLatencyCycles() uint64 { return 123 }

func TestInferenceLatencyInterface(t *testing.T) {
	e, err := NewEngine(DefaultConfig(), fixedLatencyPF{nextLine{degree: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.PrefetchLatency != 123 {
		t.Fatalf("engine did not adopt model latency: %d", e.cfg.PrefetchLatency)
	}
	cfg := DefaultConfig()
	cfg.PrefetchLatency = 7 // explicit config wins
	e2, _ := NewEngine(cfg, fixedLatencyPF{nextLine{degree: 1}})
	if e2.cfg.PrefetchLatency != 7 {
		t.Fatal("explicit PrefetchLatency must not be overridden")
	}
}

func TestPrefetchQueueBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchQueueMax = 4
	e, _ := NewEngine(cfg, nextLine{degree: 16})
	m := e.Run(seqTrace(5000))
	if m.PrefetchesDropped == 0 {
		t.Fatal("tiny queue must drop prefetches")
	}
}

func TestMetricsMath(t *testing.T) {
	m := Metrics{Instructions: 1000, Cycles: 500, PrefetchesIssued: 10, UsefulPrefetches: 8, LLCMisses: 2}
	if m.IPC() != 2.0 {
		t.Fatal("IPC")
	}
	if m.Accuracy() != 0.8 {
		t.Fatal("Accuracy")
	}
	if m.Coverage() != 0.8 {
		t.Fatal("Coverage")
	}
	base := Metrics{Instructions: 1000, Cycles: 1000}
	if got := m.IPCImprovement(base); got != 1.0 {
		t.Fatalf("IPCImprovement = %v", got)
	}
	var zero Metrics
	if zero.IPC() != 0 || zero.Accuracy() != 0 || zero.Coverage() != 0 || zero.IPCImprovement(zero) != 0 {
		t.Fatal("zero metrics must not divide by zero")
	}
	if m.String() == "" {
		t.Fatal("String")
	}
}

// Property: IPC never exceeds issue width, and instruction count equals the
// trace's own sum, for arbitrary gap patterns.
func TestQuickEngineSanity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr []trace.Access
		want := uint64(0)
		for i := 0; i < 2000; i++ {
			g := uint8(rng.Intn(8))
			want += uint64(g) + 1
			tr = append(tr, trace.Access{
				Addr: uint64(rng.Intn(1<<20)) * 64,
				Core: uint8(rng.Intn(4)),
				Gap:  g,
			})
		}
		e, err := NewEngine(DefaultConfig(), nil)
		if err != nil {
			return false
		}
		m := e.Run(tr)
		return m.Instructions == want && m.IPC() <= 4.0+1e-9 && m.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// QueuedReadyAt appends the prefetch queue's readyAt, in issue order, to dst
// and returns it with nextFill: the view of the queue the oracle tests of
// package sim_test check.
func (e *Engine) QueuedReadyAt(dst []uint64) ([]uint64, uint64) {
	for _, p := range e.inflight {
		dst = append(dst, p.readyAt)
	}
	return dst, e.nextFill
}

// OutstandingTail is how far the latest completion among the misses in
// flight lies past the slowest core's clock, 0 if none does: the most that a
// Mark here may add to the measured Cycles over the difference of two
// unmarked runs.
func (e *Engine) OutstandingTail() uint64 {
	clock, tail := slices.Max(e.coreTime), uint64(0)
	for _, q := range e.outstanding {
		for _, t := range q {
			if t > clock+tail {
				tail = t - clock
			}
		}
	}
	return tail
}

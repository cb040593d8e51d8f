package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// llcKey is what a prefetcher sees of an LLC access, less the hit flag.
type llcKey struct {
	block, pc   uint64
	core, phase uint8
	write       bool
}

// recordingPrefetcher logs every access Operate is handed and passes it on,
// reporting the inner prefetcher's inference latency so the engine times it
// as it would unwrapped.
type recordingPrefetcher struct {
	sim.Prefetcher
	seen []llcKey
}

func (p *recordingPrefetcher) Operate(acc sim.LLCAccess) []uint64 {
	p.seen = append(p.seen, llcKey{acc.Block, acc.PC, acc.Core, acc.Phase, acc.Write})
	return p.Prefetcher.Operate(acc)
}

func (p *recordingPrefetcher) InferenceLatencyCycles() uint64 {
	if l, ok := p.Prefetcher.(sim.InferenceLatency); ok {
		return l.InferenceLatencyCycles()
	}
	return 0
}

// TestLLCStreamIndependentOfPrefetcher: L1 and L2 never hold prefetches and
// nothing back-invalidates them, so which demand accesses reach the LLC, in
// which order, does not depend on the prefetcher — only their hit flags do.
// The LLC capture models train on, the served streams and the sweep all
// assume it. Every classic prefetcher and every prefetcher of
// Runner.Prefetchers must be handed the no-prefetch Recorder's stream of
// (Block, PC, Core, Write, Phase), access for access.
func TestLLCStreamIndependentOfPrefetcher(t *testing.T) {
	wl := shared.Opt.Workloads()[0]
	d, err := shared.Data(wl)
	if err != nil {
		t.Fatal(err)
	}
	raw := d.TestRaw
	cfg := shared.Opt.SimConfig()

	eng, err := sim.NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []llcKey
	eng.Recorder = func(a trace.Access, hit bool) {
		want = append(want, llcKey{trace.Block(a.Addr), a.PC, a.Core, a.Phase, a.Write})
	}
	eng.Run(raw)
	if len(want) == 0 {
		t.Fatal("no access reached the LLC")
	}

	pfs := []sim.Prefetcher{
		prefetch.NewBO(prefetch.DefaultBOConfig()),
		prefetch.NewISB(prefetch.DefaultISBConfig()),
		prefetch.NewSMS(prefetch.DefaultSMSConfig()),
		prefetch.NewVLDP(prefetch.DefaultVLDPConfig()),
		prefetch.NewDomino(prefetch.DefaultDominoConfig()),
		prefetch.NewMarkov(prefetch.DefaultMarkovConfig()),
		prefetch.NewIMP(prefetch.DefaultIMPConfig()),
	}
	ml, err := shared.Prefetchers(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range append(pfs, ml...) {
		rec := &recordingPrefetcher{Prefetcher: pf}
		eng, err := sim.NewEngine(cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		m := eng.Run(raw)
		if len(rec.seen) != len(want) {
			t.Fatalf("%s: Operate saw %d LLC accesses, the no-prefetch run %d", pf.Name(), len(rec.seen), len(want))
		}
		for i := range want {
			if rec.seen[i] != want[i] {
				t.Fatalf("%s: LLC access %d is %+v, the no-prefetch run's %+v", pf.Name(), i, rec.seen[i], want[i])
			}
		}
		t.Logf("%s: %d LLC accesses, %d prefetches issued", pf.Name(), len(want), m.PrefetchesIssued)
	}
}

// TestShortLLCStreamIsAnError: BFS from the hub of a bounded-degree road
// graph reaches too few vertices in its first iteration to fill one training
// window, and Runner.Data says so in an error (not a recovered panic) that
// names the short stream and the minimum length.
func TestShortLLCStreamIsAnError(t *testing.T) {
	o := tinyOptions()
	o.GraphScale = 8
	w := Workload{Framework: "gpop", App: frameworks.BFS, Dataset: "roadCA"}
	_, err := NewRunner(o).Data(w)
	if err == nil {
		t.Fatalf("%s at graph scale %d: want a short-stream error", w, o.GraphScale)
	}
	cfg := o.ModelConfig()
	for _, want := range []string{
		fmt.Sprintf("experiments: %s LLC train stream too short: ", w),
		fmt.Sprintf(" accesses, need %d (HistoryT + LookForwardF + 2)", cfg.HistoryT+cfg.LookForwardF+2),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not contain %q", err, want)
		}
	}
}

// TestDataRetainsNoTrace: what Runner.Data keeps is its LLC streams and its
// own exact-size copies of the warm-up and the measured window, not the raw
// trace. Across the call the live heap may grow by those four slices plus a
// slack for the rest of WorkloadData (the result's values, the census map), far below the
// trace's own bytes. Not parallel: it reads the process's live heap.
func TestDataRetainsNoTrace(t *testing.T) {
	w := Workload{Framework: "gpop", App: frameworks.PR, Dataset: "rmat"}
	// Warm every package-level cache a first Data call fills.
	if _, err := shared.Data(w); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(shared.Opt)
	if _, err := r.Graph(w.Dataset); err != nil { // cached for the runner's life
		t.Fatal(err)
	}
	tr, _, err := r.Trace(w)
	if err != nil {
		t.Fatal(err)
	}
	access := int(unsafe.Sizeof(trace.Access{}))
	traceB := cap(tr.Accesses) * access

	before := liveHeap()
	d, err := r.Data(w)
	if err != nil {
		t.Fatal(err)
	}
	grown := liveHeap() - before
	kept := (len(d.WarmRaw) + len(d.TestRaw) + cap(d.LLCTrain) + cap(d.LLCTest)) * access
	t.Logf("live heap +%d B across Runner.Data: %d B in WarmRaw, TestRaw, LLCTrain and LLCTest; trace %d B", grown, kept, traceB)

	for name, raw := range map[string][]trace.Access{"WarmRaw": d.WarmRaw, "TestRaw": d.TestRaw} {
		if cap(raw) != len(raw) {
			t.Fatalf("%s: len %d, cap %d: not a copy of its own", name, len(raw), cap(raw))
		}
	}
	const slack = 64 << 10
	if kept+slack >= traceB/2 {
		t.Fatalf("the bound (%d B kept + %d B slack) does not separate a kept trace of %d B", kept, slack, traceB)
	}
	if grown > int64(kept+slack) {
		t.Fatalf("live heap grew %d B across Runner.Data; WarmRaw, TestRaw, LLCTrain and LLCTest hold %d B (slack %d B, trace %d B)",
			grown, kept, slack, traceB)
	}
}

// liveHeap collects and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

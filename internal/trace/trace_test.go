package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddressMath(t *testing.T) {
	addr := uint64(0x12345678)
	if Block(addr) != addr>>6 {
		t.Fatal("Block")
	}
	if Page(addr) != addr>>12 {
		t.Fatal("Page")
	}
	b := Block(addr)
	if PageOfBlock(b) != Page(addr) {
		t.Fatal("PageOfBlock inconsistent with Page")
	}
	if BlockAddr(b)>>6 != b {
		t.Fatal("BlockAddr not inverse of Block")
	}
	if BlockOffset(b) >= BlocksPerPage {
		t.Fatal("BlockOffset out of range")
	}
	if BlockOfPageOffset(PageOfBlock(b), BlockOffset(b)) != b {
		t.Fatal("BlockOfPageOffset not inverse")
	}
}

func TestQuickBlockPageRoundTrip(t *testing.T) {
	f := func(addr uint64) bool {
		b := Block(addr)
		return BlockOfPageOffset(PageOfBlock(b), BlockOffset(b)) == b &&
			BlockAddr(b) <= addr && addr < BlockAddr(b)+64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceIterations(t *testing.T) {
	tr := &Trace{
		Accesses:        make([]Access, 10),
		IterationStarts: []int{0, 4, 7},
		NumPhases:       2,
	}
	cases := []struct{ i, lo, hi int }{{0, 0, 4}, {1, 4, 7}, {2, 7, 10}}
	for _, c := range cases {
		lo, hi, err := tr.Iteration(c.i)
		if err != nil || lo != c.lo || hi != c.hi {
			t.Fatalf("Iteration(%d) = %d,%d,%v want %d,%d", c.i, lo, hi, err, c.lo, c.hi)
		}
	}
	if _, _, err := tr.Iteration(3); err == nil {
		t.Fatal("want error for out-of-range iteration")
	}
	if tr.NumIterations() != 3 {
		t.Fatal("NumIterations")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceValidateRejects(t *testing.T) {
	bad := &Trace{Accesses: make([]Access, 3), IterationStarts: []int{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("first iteration must start at 0")
	}
	bad2 := &Trace{Accesses: make([]Access, 3), IterationStarts: []int{0, 2, 2}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("non-increasing starts must fail")
	}
	bad3 := &Trace{Accesses: []Access{{Phase: 5}}, NumPhases: 2}
	if err := bad3.Validate(); err == nil {
		t.Fatal("phase out of range must fail")
	}
}

func TestTraceSlice(t *testing.T) {
	tr := &Trace{Accesses: make([]Access, 10), IterationStarts: []int{0, 4, 7}, NumPhases: 2}
	sub := tr.Slice(4, 10)
	if len(sub.Accesses) != 6 {
		t.Fatalf("slice len %d", len(sub.Accesses))
	}
	if len(sub.IterationStarts) != 2 || sub.IterationStarts[0] != 0 || sub.IterationStarts[1] != 3 {
		t.Fatalf("slice iteration starts %v", sub.IterationStarts)
	}
	clamped := tr.Slice(-3, 99)
	if len(clamped.Accesses) != 10 {
		t.Fatal("slice should clamp")
	}
	empty := tr.Slice(6, 2)
	if len(empty.Accesses) != 0 {
		t.Fatal("inverted slice should be empty")
	}
}

func TestPhaseTransitions(t *testing.T) {
	tr := &Trace{Accesses: []Access{{Phase: 0}, {Phase: 0}, {Phase: 1}, {Phase: 1}, {Phase: 0}}}
	got := tr.PhaseTransitions()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("PhaseTransitions = %v, want [2 4]", got)
	}
}

func TestAddressSpace(t *testing.T) {
	as := NewAddressSpace(0x1000_0000)
	a := as.Alloc("vertices", 100)
	b := as.Alloc("edges", 1<<16)
	if a.Base%4096 != 0 || b.Base%4096 != 0 {
		t.Fatal("regions must be page aligned")
	}
	if a.Base+a.Size > b.Base {
		t.Fatal("regions overlap")
	}
	if Page(a.Base+a.Size-1) == Page(b.Base) {
		t.Fatal("regions share a page")
	}
	if as.NameOf(a.Base+10) != "vertices" || as.NameOf(b.Base) != "edges" {
		t.Fatal("NameOf")
	}
	if as.NameOf(0) != "" {
		t.Fatal("NameOf miss should be empty")
	}
	if len(as.Regions()) != 2 {
		t.Fatal("Regions")
	}
	zero := as.Alloc("tiny", 0)
	if zero.Size == 0 {
		t.Fatal("zero alloc should round up to a page")
	}
}

func TestRegionElem(t *testing.T) {
	r := Region{Name: "x", Base: 0x1000, Size: 0x1000}
	if r.Elem(3, 8) != 0x1000+24 {
		t.Fatal("Elem math")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Elem out of range must panic")
		}
	}()
	r.Elem(512, 8)
}

func TestPCRegistry(t *testing.T) {
	r := NewPCRegistry(0x400000)
	a := r.PC("scatter.read")
	b := r.PC("scatter.write")
	if a == b {
		t.Fatal("distinct sites must get distinct PCs")
	}
	if r.PC("scatter.read") != a {
		t.Fatal("PC must be stable")
	}
	if r.Site(a) != "scatter.read" {
		t.Fatal("Site lookup")
	}
	if r.Site(0xdead) != "" {
		t.Fatal("Site miss")
	}
	if r.NumSites() != 2 {
		t.Fatal("NumSites")
	}
}

func TestInterleavePreservesPerCoreOrder(t *testing.T) {
	streams := make([][]Access, 4)
	for c := range streams {
		for i := 0; i < 100; i++ {
			streams[c] = append(streams[c], Access{Addr: uint64(c*1000 + i)})
		}
	}
	out := Interleave(streams, 8, 42)
	if len(out) != 400 {
		t.Fatalf("merged length %d, want 400", len(out))
	}
	last := map[uint8]uint64{}
	seen := map[uint8]bool{}
	for _, a := range out {
		if seen[a.Core] && a.Addr <= last[a.Core] {
			t.Fatalf("core %d out of order: %d after %d", a.Core, a.Addr, last[a.Core])
		}
		last[a.Core] = a.Addr
		seen[a.Core] = true
	}
	for c := uint8(0); c < 4; c++ {
		if !seen[c] {
			t.Fatalf("core %d never appears", c)
		}
	}
}

func TestInterleaveDeterministic(t *testing.T) {
	streams := [][]Access{{{Addr: 1}, {Addr: 2}}, {{Addr: 3}}}
	a := Interleave(streams, 2, 9)
	b := Interleave(streams, 2, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same interleaving")
		}
	}
}

func TestInterleaveActuallyInterleaves(t *testing.T) {
	// With 4 equal streams and small bursts, the output should not be one
	// stream fully before another.
	streams := make([][]Access, 4)
	for c := range streams {
		for i := 0; i < 200; i++ {
			streams[c] = append(streams[c], Access{Addr: uint64(i)})
		}
	}
	out := Interleave(streams, 4, 1)
	switches := 0
	for i := 1; i < len(out); i++ {
		if out[i].Core != out[i-1].Core {
			switches++
		}
	}
	if switches < 20 {
		t.Fatalf("only %d core switches; not interleaved", switches)
	}
}

func TestInterleaveEmptyAndUneven(t *testing.T) {
	out := Interleave(nil, 4, 1)
	if len(out) != 0 {
		t.Fatal("empty input")
	}
	streams := [][]Access{{}, {{Addr: 7}}, {}}
	out = Interleave(streams, 0, 1)
	if len(out) != 1 || out[0].Addr != 7 || out[0].Core != 1 {
		t.Fatalf("uneven interleave got %v", out)
	}
}

func TestTraceIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &Trace{App: "pr", Framework: "gpop", NumPhases: 2, IterationStarts: []int{0, 50}}
	for i := 0; i < 100; i++ {
		tr.Accesses = append(tr.Accesses, Access{
			Addr:  rng.Uint64(),
			PC:    rng.Uint64(),
			Core:  uint8(rng.Intn(4)),
			Phase: uint8(rng.Intn(2)),
			Gap:   uint8(rng.Intn(32)),
			Write: rng.Intn(2) == 0,
		})
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "pr" || got.Framework != "gpop" || got.NumPhases != 2 {
		t.Fatal("header mismatch")
	}
	if len(got.Accesses) != len(tr.Accesses) {
		t.Fatal("length mismatch")
	}
	for i := range got.Accesses {
		if got.Accesses[i] != tr.Accesses[i] {
			t.Fatalf("access %d mismatch: %+v vs %+v", i, got.Accesses[i], tr.Accesses[i])
		}
	}
	if len(got.IterationStarts) != 2 || got.IterationStarts[1] != 50 {
		t.Fatal("iteration starts mismatch")
	}
}

func TestTraceReadBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, 128))); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestQuickTraceIORoundTrip(t *testing.T) {
	f := func(addrs []uint64, phases []uint8) bool {
		tr := &Trace{NumPhases: 256}
		for i, a := range addrs {
			p := uint8(0)
			if i < len(phases) {
				p = phases[i]
			}
			tr.Accesses = append(tr.Accesses, Access{Addr: a, Phase: p})
		}
		if len(tr.Accesses) > 0 {
			tr.IterationStarts = []int{0}
		}
		var buf bytes.Buffer
		if Write(&buf, tr) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Accesses) != len(tr.Accesses) {
			return false
		}
		for i := range got.Accesses {
			if got.Accesses[i] != tr.Accesses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{App: "pr", Framework: "gpop", NumPhases: 2, IterationStarts: []int{0}}
	// Phase 0: sequential pages; phase 1: wide jumps.
	for i := 0; i < 100; i++ {
		tr.Accesses = append(tr.Accesses, Access{
			Addr: uint64(i) << PageBits, PC: 0x400000, Phase: 0, Write: i%4 == 0,
		})
	}
	for i := 0; i < 100; i++ {
		tr.Accesses = append(tr.Accesses, Access{
			Addr: uint64(i*1000) << PageBits, PC: 0x500000, Phase: 1, Core: 1,
		})
	}
	s := Summarize(tr)
	if s.Accesses != 200 || s.Iterations != 1 || s.Cores != 2 {
		t.Fatalf("summary header: %+v", s)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("phases %d", len(s.Phases))
	}
	p0, p1 := s.Phases[0], s.Phases[1]
	if p0.Phase != 0 || p1.Phase != 1 {
		t.Fatal("phase ordering")
	}
	if p0.Writes != 25 {
		t.Fatalf("writes %d", p0.Writes)
	}
	if p0.WideJumpFraction != 0 {
		t.Fatalf("phase 0 jumps sequential pages by 1: %v", p0.WideJumpFraction)
	}
	if p1.WideJumpFraction < 0.9 {
		t.Fatalf("phase 1 should be all wide jumps: %v", p1.WideJumpFraction)
	}
	if p0.UniquePCs != 1 || p1.UniquePCs != 1 {
		t.Fatal("unique PCs")
	}
	var buf bytes.Buffer
	s.Print(&buf)
	if !strings.Contains(buf.String(), "phase 1") {
		t.Fatal("print output")
	}
}

// referenceInterleave is Interleave as it stood before AppendInterleave: the
// merge built access by access into a slice of its own.
func referenceInterleave(streams [][]Access, meanBurst int, seed int64) []Access {
	if meanBurst < 1 {
		meanBurst = 1
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]int, len(streams))
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]Access, 0, total)
	live := 0
	for _, s := range streams {
		if len(s) > 0 {
			live++
		}
	}
	for live > 0 {
		// Pick a random live core, weighted by remaining work so long
		// streams do not starve at the tail.
		c := pickLive(rng, streams, pos)
		// Burst length ~ Geometric(1/meanBurst).
		burst := 1
		for rng.Float64() < 1-1/float64(meanBurst) {
			burst++
		}
		for i := 0; i < burst && pos[c] < len(streams[c]); i++ {
			a := streams[c][pos[c]]
			a.Core = uint8(c)
			out = append(out, a)
			pos[c]++
		}
		if pos[c] >= len(streams[c]) {
			live = 0
			for ci, s := range streams {
				if pos[ci] < len(s) {
					live++
				}
			}
		}
	}
	return out
}

// TestAppendInterleaveMatchesReference: on random stream shapes the merge is
// the reference's (same RNG draws, same Core stamps) whether it lands in a
// nil dst, in spare capacity or past it; what dst already held is untouched,
// and so are the source streams — Core is stamped on the copy.
func TestAppendInterleaveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		streams := make([][]Access, rng.Intn(6))
		for c := range streams {
			for i, n := 0, rng.Intn(60)*rng.Intn(2); i < n; i++ {
				streams[c] = append(streams[c], Access{Addr: uint64(c*1000 + i), Core: 99, Gap: uint8(rng.Intn(6))})
			}
		}
		pristine := make([][]Access, len(streams))
		for c := range streams {
			pristine[c] = slices.Clone(streams[c])
		}
		burst, seed := rng.Intn(8), rng.Int63()
		want := referenceInterleave(streams, burst, seed)
		if got := Interleave(streams, burst, seed); !slices.Equal(got, want) {
			t.Fatalf("round %d: Interleave differs from the reference", round)
		}
		if got := AppendInterleave(nil, streams, burst, seed); !slices.Equal(got, want) {
			t.Fatalf("round %d: AppendInterleave(nil) differs from the reference", round)
		}
		prefix := []Access{{Addr: 1, Core: 7}, {Addr: 2, Core: 8}, {Addr: 3, Core: 9}}
		for _, spare := range []int{0, 10, 1000} {
			dst := append(make([]Access, 0, len(prefix)+spare), prefix...)
			got := AppendInterleave(dst, streams, burst, seed)
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("round %d, %d spare: prefix or merge wrong", round, spare)
			}
			if spare >= len(want) && &got[0] != &dst[0] {
				t.Fatalf("round %d: %d accesses did not land in %d spare slots", round, len(want), spare)
			}
		}
		for c := range streams {
			if !slices.Equal(streams[c], pristine[c]) {
				t.Fatalf("round %d: source stream %d was written", round, c)
			}
		}
	}
}

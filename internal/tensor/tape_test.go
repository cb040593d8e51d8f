package tensor

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// onTape reports whether s is memory of tp's buffer.
func onTape(tp *Tape, s []float64) bool {
	buf := tp.data.buf
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	at, lo := uintptr(unsafe.Pointer(&s[0])), uintptr(unsafe.Pointer(&buf[0]))
	return at >= lo && at < lo+uintptr(len(buf))*unsafe.Sizeof(buf[0])
}

// TestTapeTakeIsZeroAfterReset: a step may leave anything behind — here NaN in
// every slice it was handed — and the next step still starts from zeros, both
// while the tape is growing (round 0 is all fallback allocations, round 3's
// last take is more than the buffer has left) and on the warm buffer.
func TestTapeTakeIsZeroAfterReset(t *testing.T) {
	tp := NewTape(nil)
	sizes := []int{5, 1000, 17, 1}
	for round := 0; round < 5; round++ {
		if round == 3 {
			sizes = append(sizes, 4096)
		}
		for _, n := range sizes {
			s := tp.data.take(n)
			if len(s) != n {
				t.Fatalf("round %d: take(%d) has len %d", round, n, len(s))
			}
			for i, v := range s {
				if v != 0 {
					t.Fatalf("round %d: take(%d)[%d] = %g, want 0", round, n, i, v)
				}
				s[i] = math.NaN()
			}
			if want := round > 0 && !(round == 3 && n == 4096); onTape(tp, s) != want {
				t.Fatalf("round %d: take(%d) on the tape's buffer = %v, want %v", round, n, !want, want)
			}
		}
		tp.Reset()
	}
}

// TestTapeGrowthNeverMovesASlice: a take the buffer cannot serve is served
// elsewhere; every slice handed out earlier in the step keeps its address and
// its contents, and no two live slices overlap.
func TestTapeGrowthNeverMovesASlice(t *testing.T) {
	tp := NewTape(nil)
	tp.data.take(4096)
	tp.Reset() // a 4096-element buffer
	rng := rand.New(rand.NewSource(1))
	type held struct {
		s    []float64
		at   *float64
		fill float64
	}
	var live []held
	for i, total := 0, 0; total < 4*4096; i++ {
		s := tp.data.take(1 + rng.Intn(1024))
		total += len(s)
		fill := float64(i + 1)
		for j := range s {
			s[j] = fill
		}
		live = append(live, held{s, &s[0], fill})
	}
	if !onTape(tp, live[0].s) || onTape(tp, live[len(live)-1].s) {
		t.Fatal("want the step to start on the buffer and outgrow it")
	}
	for i, h := range live {
		if &h.s[0] != h.at {
			t.Fatalf("slice %d moved", i)
		}
		for j, v := range h.s {
			if v != h.fill {
				t.Fatalf("slice %d elem %d = %g, want %g (overwritten by a later take)", i, j, v, h.fill)
			}
		}
	}
}

// TestTapeOwnsResultsNotParameters: results computed from taped parameters
// draw Data and Grad from the tape; a parameter's Grad never does, so it
// still holds the step's gradient after Reset and after the next forward has
// reused the tape.
func TestTapeOwnsResultsNotParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, b := randParam(rng, 4, 3), randParam(rng, 1, 3)
	x := Randn(5, 4, 1, rng) // an input: no grad, no tape
	forward := func() (*Tensor, *Tensor) {
		h := AddBias(MatMul(x, w), b)
		return h, MSE(h, make([]float64, 15))
	}

	tp := NewTape([]*Tensor{w, b})
	if _, warm := forward(); warm.Backward() != nil {
		t.Fatal("warm-up step")
	}
	w.ZeroGrad()
	b.ZeroGrad()
	tp.Reset() // the buffer now holds a whole step
	h, loss := forward()
	if !onTape(tp, h.Data) || !onTape(tp, loss.Data) {
		t.Fatal("a result of taped parameters must take its Data from the tape")
	}
	if err := loss.Backward(); err != nil {
		t.Fatal(err)
	}
	if !onTape(tp, h.Grad) {
		t.Fatal("a taped result must take its Grad from the tape")
	}
	for _, p := range []*Tensor{w, b} {
		if p.Grad == nil || onTape(tp, p.Grad) || onTape(tp, p.Data) {
			t.Fatal("parameter Data and Grad must stay on the heap")
		}
	}
	want := append([]float64(nil), w.Grad...)
	tp.Reset()
	forward() // reuses, and so zeroes, the memory the first step's graph held
	for i, g := range w.Grad {
		if math.Float64bits(g) != math.Float64bits(want[i]) {
			t.Fatalf("w.Grad[%d] = %g after Reset and another forward, want %g", i, g, want[i])
		}
	}

	tp.Release()
	if w.tape != nil || b.tape != nil {
		t.Fatal("Release must take the parameters off the tape")
	}
	h, loss = forward()
	if h.tape != nil || loss.tape != nil || onTape(tp, h.Data) {
		t.Fatal("after Release results are heap-allocated again")
	}
}

// TestTapeSecondOwnerFails: a parameter already on a tape cannot join another.
func TestTapeSecondOwnerFails(t *testing.T) {
	p := Zeros(1, 1).Param()
	tp := NewTape([]*Tensor{p})
	defer tp.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second tape over the same parameter must fail the invariant")
		}
	}()
	NewTape([]*Tensor{p})
}

// TestBackwardOrderAndMarks: the mark-based traversal visits what the map-based
// one did, in its order — a diamond's shared node once, before both its users —
// and leaves no mark set, taped or not; on a warm tape neither the traversal
// nor a result's Data and Grad allocate.
func TestBackwardOrderAndMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 3, 3)
	var nodes []*Tensor
	forward := func() *Tensor {
		sq := Mul(a, a)
		l, r := Scale(sq, 2), Tanh(sq)
		sum := Add(l, r)
		loss := MSE(sum, make([]float64, 9))
		nodes = []*Tensor{a, sq, l, r, sum, loss}
		return loss
	}
	check := func(name string) []float64 {
		t.Helper()
		if err := forward().Backward(); err != nil {
			t.Fatal(err)
		}
		for i, n := range nodes {
			if n.mark {
				t.Fatalf("%s: node %d still marked after Backward", name, i)
			}
		}
		g := append([]float64(nil), a.Grad...)
		a.ZeroGrad()
		return g
	}
	heap := check("heap")
	tp := NewTape([]*Tensor{a})
	defer tp.Release()
	taped := check("taped")
	for i := range heap {
		if math.Float64bits(heap[i]) != math.Float64bits(taped[i]) {
			t.Fatalf("grad[%d]: heap %g, taped %g", i, heap[i], taped[i])
		}
	}
	// tp.order is the last traversal: leaves first, the shared node sq once
	// and before both its users, the root last.
	if got := len(tp.order); got != len(nodes) {
		t.Fatalf("traversal visited %d nodes, want %d", got, len(nodes))
	}
	if tp.order[0] != nodes[0] || tp.order[1] != nodes[1] || tp.order[len(nodes)-1] != nodes[len(nodes)-1] {
		t.Fatal("traversal order changed: want a, sq, ..., loss")
	}

	// On the heap a step allocates a Data and a Grad per result (five
	// results) and Backward its map, stack and order; on a warm tape none of
	// those — only headers, parent slices and closures are left.
	tp.Reset()
	step := func() {
		if err := forward().Backward(); err != nil {
			t.Fatal(err)
		}
		a.ZeroGrad()
		tp.Reset()
	}
	tapedAllocs := testing.AllocsPerRun(50, step)
	tp.Release()
	heapAllocs := testing.AllocsPerRun(50, step)
	if heapAllocs-tapedAllocs < 13 {
		t.Fatalf("a taped step makes %.0f allocations, a heap step %.0f: want at least 13 fewer (10 slices + traversal)", tapedAllocs, heapAllocs)
	}
}

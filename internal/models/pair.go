package models

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/tensor"
)

// Pair evaluates a delta model and a page model on one sample side by side
// (DESIGN.md §8, "One Operate on two cores"): the delta call runs on the
// caller's arena, the page call on the pair's own, on a helper goroutine
// when one starts it in time. Each call is a pure function of its weights
// and the sample on a private arena, so the results are the bits the two
// calls give one after the other. A Pair belongs to one prefetcher and
// serves one call at a time; its zero value is ready to use.
type Pair struct {
	ctx   *tensor.Ctx // the page calls' arena: made by the first, reset after each
	state atomic.Uint32

	// The posted page call and its result. The caller writes them before
	// it posts and reads them after it claims or joins; a helper touches
	// them only between its pairPosted → pairRunning swap and pairDone.
	pm    PageModel
	s     *Sample
	k     int
	pages []uint64
	fault any // a panic the page call raised, with its stack
	stack []byte

	// Helped and Claimed count the page calls the pair posted, by who ran
	// them: a helper, or the caller, which found that no helper had started
	// the call when its own delta call returned. Only the caller writes them.
	Helped, Claimed int
}

// The states of a Pair's page call.
const (
	pairIdle    uint32 = iota // no page call in flight
	pairPosted                // offered to the pool, not started
	pairRunning               // a helper is running it
	pairDone                  // a helper ran it; the caller has not joined
)

// Run returns dm's scores for s, on dc, and appends pm's top-k pages for s
// to pages. The page call is posted to the helper pool before the delta
// call starts; if no helper has started it by the time the delta call
// returns, the caller claims it and runs it itself, so the caller never
// waits on a helper that has not started. With GOMAXPROCS = 1, or a full
// queue, nothing is posted and both calls run on dc, in order. A panic in
// either call is raised on the caller's stack.
func (p *Pair) Run(dc *tensor.Ctx, dm DeltaModel, pm PageModel, s *Sample, k int, pages []uint64) ([]float64, []uint64) {
	if !PairOverlaps() || !p.post(pm, s, k, pages) {
		return dm.DeltaScoresCtx(dc, s), pm.TopPagesAppendCtx(dc, s, k, pages)
	}
	defer p.settle()
	scores := dm.DeltaScoresCtx(dc, s)
	if p.claim() {
		p.runPage()
		p.Claimed++
	} else {
		p.join()
		p.Helped++
	}
	p.rethrow()
	return scores, p.pages
}

// PairOverlaps reports whether a Pair can run its two calls at once,
// GOMAXPROCS > 1, growing the helper pool to GOMAXPROCS − 1 first. A caller
// that would make a call only for the overlap, a speculative one, checks it.
func PairOverlaps() bool {
	want := int32(runtime.GOMAXPROCS(0) - 1)
	if want < 1 {
		return false
	}
	if pool.started.Load() < want {
		pool.grow(want)
	}
	return true
}

// post offers the page call to the pool. It reports false, with nothing in
// flight, when the queue is full.
//
//mpgraph:noalloc
func (p *Pair) post(pm PageModel, s *Sample, k int, pages []uint64) bool {
	p.pm, p.s, p.k, p.pages = pm, s, k, pages
	p.state.Store(pairPosted)
	select {
	case pool.jobs <- p:
		return true
	default:
		// A helper holding a stale entry of p may have started the call
		// already; then it is in flight after all.
		return !p.claim()
	}
}

// claim takes a posted page call back for the caller to run, if no helper
// has started it.
//
//mpgraph:noalloc
func (p *Pair) claim() bool { return p.state.CompareAndSwap(pairPosted, pairIdle) }

// join waits for the helper that started the page call to finish it. The
// helper is running, so the wait is at most one page call; the caller yields
// its P meanwhile.
//
//mpgraph:noalloc
func (p *Pair) join() {
	for p.state.Load() != pairDone {
		runtime.Gosched()
	}
	p.state.Store(pairIdle)
}

// settle, deferred by Run, leaves the pair idle however Run exits: a page
// call a panicking delta call left posted is withdrawn, one a helper is
// running is waited for, and its result and any panic are dropped.
func (p *Pair) settle() {
	if p.state.Load() == pairIdle {
		return
	}
	if !p.claim() {
		p.join()
	}
	p.fault, p.stack = nil, nil
}

// runPage runs the posted page call on the pair's arena, which it resets.
// A panic is kept for rethrow.
func (p *Pair) runPage() {
	if p.ctx == nil {
		p.ctx = tensor.NewCtx()
	}
	defer p.ctx.Reset()
	defer p.capture()
	p.pages = p.pm.TopPagesAppendCtx(p.ctx, p.s, p.k, p.pages)
}

// capture is deferred by runPage: it records a page call's panic and its
// stack, so that a helper survives it and the caller re-raises it.
//
// mpgraph:recovers
func (p *Pair) capture() {
	if v := recover(); v != nil {
		p.fault, p.stack = v, debug.Stack()
	}
}

// rethrow re-raises the page call's panic, if any, on the caller's stack,
// where the caller's recovery boundaries (prefetch.Guarded) apply.
//
// mpgraph:invariant
func (p *Pair) rethrow() {
	if p.fault == nil {
		return
	}
	v, stack := p.fault, p.stack
	p.fault, p.stack = nil, nil
	panic(fmt.Sprintf("models: page call of a pair panicked: %v\n%s", v, stack))
}

// pool is the process-wide set of page-call helpers. It starts on the first
// pair call that can post and grows to GOMAXPROCS − 1 helpers; they are
// never stopped, so however many prefetchers a sweep or the daemon builds,
// the pool holds at most one goroutine per spare P.
var pool = pairPool{jobs: make(chan *Pair, pairQueue)}

// pairQueue bounds the posted page calls. A caller has at most one live
// post; the rest of the queue holds stale entries of calls their callers
// claimed back, which helpers drop. A full queue makes a pair run in order
// on the caller.
const pairQueue = 64

// pairSpin is how long a helper keeps polling, after its wake-up or its
// last page call, before it parks: about one Operate, so it bridges the gap
// between one Operate's pairs and the next's, and parks through a stretch of
// simulation with no ML prefetcher. Waking a parked helper takes longer than
// a delta call.
const pairSpin = 50 * time.Microsecond

type pairPool struct {
	mu      sync.Mutex
	started atomic.Int32
	jobs    chan *Pair
}

func (pl *pairPool) grow(want int32) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for n := pl.started.Load(); n < want; n++ {
		go pl.help() //mpgraph:detached -- the process-wide pair pool: at most GOMAXPROCS-1 helpers, parked when idle, never stopped
		pl.started.Store(n + 1)
	}
}

// help runs posted page calls forever. It parks on the queue; a post that
// wakes it starts a spin, in which it polls the queue until pairSpin has
// passed without a call to run. An entry whose caller claimed it back is
// dropped — only a pairPosted → pairRunning swap runs a call — and neither
// it nor an entry already queued when the spin ends starts a new one: a
// helper that has to share its caller's P, where runtime.Gosched never wakes
// the idle one, must park, so that the next post wakes it where it can run.
func (pl *pairPool) help() {
	var deadline time.Time
	for {
		p := pl.poll(deadline)
		if p == nil {
			p = <-pl.jobs
			deadline = time.Now().Add(pairSpin)
		}
		if p.state.CompareAndSwap(pairPosted, pairRunning) {
			p.runPage()
			p.state.Store(pairDone)
			deadline = time.Now().Add(pairSpin)
		}
	}
}

// poll returns the next queue entry, looking until deadline and yielding
// its P between looks; once deadline has passed it returns an entry already
// queued, or nil.
func (pl *pairPool) poll(deadline time.Time) *Pair {
	for {
		select {
		case p := <-pl.jobs:
			return p
		default:
		}
		if !time.Now().Before(deadline) {
			return nil
		}
		runtime.Gosched()
	}
}

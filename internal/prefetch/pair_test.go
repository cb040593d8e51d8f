package prefetch

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// sequentialVoyager is Voyager with predict as it stood before the pair:
// the delta call, then the page call, both on the prefetcher's arena.
type sequentialVoyager struct{ *Voyager }

func (p *sequentialVoyager) Operate(acc sim.LLCAccess) []uint64 {
	page := trace.PageOfBlock(acc.Block)
	if _, seen := p.lastOffset[page]; !seen {
		if victim, full := p.fifo.Push(page); full {
			delete(p.lastOffset, victim)
		}
	}
	p.lastOffset[page] = trace.BlockOffset(acc.Block)
	p.hist.Push(acc.Block, acc.PC)
	if !p.hist.Warm() {
		return nil
	}
	defer p.ctx.Reset()
	s := p.hist.SampleInto(&p.scratch, 0)
	p.out = p.predict(p.ctx, s, acc.Block, p.out[:0])
	return p.out
}

// predict is the parent's Voyager.predict, verbatim.
func (p *sequentialVoyager) predict(c *tensor.Ctx, s *models.Sample, block uint64, out []uint64) []uint64 {
	var scores []float64
	if p.sess != nil {
		scores = p.sess.DeltaScores(p.deltaModel, s)
	} else {
		scores = p.deltaModel.DeltaScoresCtx(c, s)
	}
	var err error
	out, err = models.AppendDeltaTargets(c, scores, block, p.opt.Degree/2, out)
	p.health = keepFirst(p.health, err)
	if p.sess != nil {
		p.pages = p.sess.TopPages(p.pageModel, s, 1, p.pages[:0])
	} else {
		p.pages = p.pageModel.TopPagesAppendCtx(c, s, 1, p.pages[:0])
	}
	for _, pg := range p.pages {
		off, ok := p.lastOffset[pg]
		if !ok {
			off = 0
		}
		base := trace.BlockOfPageOffset(pg, off)
		out = append(out, base)
		if rest := p.opt.Degree - len(out); rest > 0 {
			out, err = models.AppendDeltaTargets(c, scores, base, rest, out)
			p.health = keepFirst(p.health, err)
		}
	}
	if len(out) > p.opt.Degree {
		out = out[:p.opt.Degree]
	}
	return out
}

// nanOnPage is a delta model whose scores turn NaN whenever the sample's
// newest block lies in page.
type nanOnPage struct {
	models.DeltaModel
	page uint64
}

func (d nanOnPage) DeltaScoresCtx(c *tensor.Ctx, s *models.Sample) []float64 {
	scores := d.DeltaModel.DeltaScoresCtx(c, s)
	if trace.PageOfBlock(s.CurrentBlock()) == d.page {
		scores[len(scores)/2] = math.NaN()
	}
	return scores
}

// voyagerStream is a seeded LLC stream that walks the pages the tiny models
// were trained on, jumps among them, and now and then leaves them, so
// predicted pages are both known and unknown to Voyager's last-offset map.
func voyagerStream(seed int64, n int) []sim.LLCAccess {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.LLCAccess, n)
	block := uint64(1 << 20)
	for i := range out {
		switch r := rng.Intn(10); {
		case r < 6:
			block += uint64(1 + rng.Intn(2))
		case r < 9:
			block = 1<<20 + uint64(rng.Intn(3750))
		default:
			block = uint64(rng.Intn(1 << 24))
		}
		out[i] = sim.LLCAccess{Block: block, PC: 0x40 * uint64(rng.Intn(4))}
	}
	return out
}

// TestVoyagerMatchesSequential holds Voyager, whose delta and page calls run
// side by side, to the parent's predict on random streams: equal outputs and
// health on every access, at several degrees, with a delta model that turns
// NaN on one page. With a second P the pair must have posted its page calls.
func TestVoyagerMatchesSequential(t *testing.T) {
	ds, delta, page := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	posted, pageRelative, sick := 0, 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, degree := range []int{2, 3, 6} {
			var dm models.DeltaModel = delta
			if seed%2 == 0 {
				dm = nanOnPage{DeltaModel: delta, page: trace.PageOfBlock(1<<20 + 1500)}
			}
			opt := MLOptions{Degree: degree}
			pf := NewVoyager(page, dm, T, opt)
			ref := &sequentialVoyager{NewVoyager(page, dm, T, opt)}
			for i, acc := range voyagerStream(seed, 600) {
				got, want := pf.Operate(acc), ref.Operate(acc)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d degree %d access %d: paired %v, sequential %v", seed, degree, i, got, want)
				}
				if g, w := pf.Health(), ref.Health(); (g == nil) != (w == nil) || (g != nil && g.Error() != w.Error()) {
					t.Fatalf("seed %d degree %d access %d: health %v, sequential %v", seed, degree, i, g, w)
				}
				if len(got) > degree/2 {
					pageRelative++
				}
			}
			if pf.Health() != nil {
				sick++
			}
			posted += pf.pair.Helped + pf.pair.Claimed
		}
	}
	if pageRelative == 0 || sick == 0 {
		t.Fatalf("vacuous: %d Operates reached the predicted page, %d prefetchers turned unhealthy", pageRelative, sick)
	}
	if procs := runtime.GOMAXPROCS(0); (procs > 1) != (posted > 0) {
		t.Fatalf("GOMAXPROCS %d: %d page calls posted", procs, posted)
	}
}

// handoffWait bounds how long a handoff delta call waits for its page call.
const handoffWait = 5 * time.Second

// handoff makes a pair's helper observable: its delta model holds each call
// until the page model has been entered, so a page call it saw begin ran on
// a helper, the caller being still inside the delta call.
type handoff struct {
	entered atomic.Bool
	ran     int // delta calls whose page call began on a helper
	panics  bool
}

func (h *handoff) models(d models.DeltaModel, p models.PageModel) (models.DeltaModel, models.PageModel) {
	return handoffDelta{d, h}, handoffPage{p, h}
}

type handoffDelta struct {
	models.DeltaModel
	h *handoff
}

func (d handoffDelta) DeltaScoresCtx(c *tensor.Ctx, s *models.Sample) []float64 {
	deadline := time.Now().Add(handoffWait)
	for !d.h.entered.Load() && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if d.h.entered.Swap(false) {
		d.h.ran++
	}
	return d.DeltaModel.DeltaScoresCtx(c, s)
}

type handoffPage struct {
	models.PageModel
	h *handoff
}

func (p handoffPage) TopPagesAppendCtx(c *tensor.Ctx, s *models.Sample, k int, dst []uint64) []uint64 {
	p.h.entered.Store(true)
	if p.h.panics {
		panic("page model exploded")
	}
	return p.PageModel.TopPagesAppendCtx(c, s, k, dst)
}

// TestGuardedCatchesHelperPanic: a page model that panics on a pair's helper
// reaches Guarded as panic-recovered, on the caller's stack, and Guarded
// serves BO for that access; the process survives it, and the next pair,
// from another prefetcher, still runs its page call on a helper. Both
// prefetchers that pair are covered.
func TestGuardedCatchesHelperPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds, delta, page := tinyTrainedModels(t)
	T := ds.Cfg.HistoryT
	// Blocks far from the trained pages: MPGraph's predicted page is never
	// in its PBOT, so an Operate makes one pair and no other model call.
	access := func(i int) sim.LLCAccess {
		return sim.LLCAccess{Block: uint64(1<<30 + 3*i), PC: 0x40 * uint64(i%3)}
	}
	for _, c := range []struct {
		name  string
		build func(models.DeltaModel, models.PageModel) sim.Prefetcher
	}{
		{"mpgraph", func(d models.DeltaModel, p models.PageModel) sim.Prefetcher {
			opt := core.DefaultOptions()
			opt.OraclePhase = true
			m, err := core.New(opt, T, nil, []models.DeltaModel{d}, []models.PageModel{p})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"voyager", func(d models.DeltaModel, p models.PageModel) sim.Prefetcher {
			return NewVoyager(p, d, T, MLOptions{Degree: 6})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := &handoff{panics: true}
			events := &resilience.Log{}
			g := NewGuarded(c.build(bad.models(delta, page)), NewBO(DefaultBOConfig()), GuardConfig{}, events)
			twin := NewBO(DefaultBOConfig())
			for i := 0; i < T+8; i++ {
				got, want := g.Operate(access(i)), twin.Operate(access(i))
				if i >= T-1 && !slices.Equal(got, want) {
					t.Fatalf("access %d: guarded served %v, BO %v", i, got, want)
				}
			}
			component := "prefetch/" + c.name
			if n := events.Count(component, "panic-recovered"); n != 3 || bad.ran != 3 || !g.Quarantined() {
				t.Fatalf("%d panics recovered, %d page calls began on a helper, quarantined %v; want 3, 3, true\n%v",
					n, bad.ran, g.Quarantined(), events.Events())
			}
			for _, e := range events.Events() {
				if e.Action == "panic-recovered" && !strings.Contains(e.Detail, "page model exploded") {
					t.Fatalf("the helper's panic value did not reach Guarded: %s", e.Detail)
				}
			}

			good := &handoff{}
			pf, ref := c.build(good.models(delta, page)), c.build(delta, page)
			for i := 0; i < T+8; i++ {
				if got, want := pf.Operate(access(i)), ref.Operate(access(i)); !slices.Equal(got, want) {
					t.Fatalf("after the panic, access %d: %v, want %v", i, got, want)
				}
			}
			if good.ran == 0 {
				t.Fatal("after the panic, no page call began on a helper")
			}
		})
	}
}

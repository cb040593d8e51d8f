package models

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpgraph/internal/tensor"
)

// TestPairConcurrentCallers: prefetchers on several goroutines share the one
// helper pool, each through its own Pair. Every pair call must return the
// bits of its two calls made one after the other on one arena, whoever ran
// the page call, for an f64 and an f32 suite. Callers that outnumber the
// helpers fill the queue with calls they claimed back; a pair that finds it
// full runs in order, which must give the same bits too.
func TestPairConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	delta, page := NewAMMADelta(cfg, pcs, 0, 1), NewAMMAPage(cfg, pages, pcs, 0, 2)
	delta32, page32, err := ConvertSuiteF32(delta, page)
	if err != nil {
		t.Fatal(err)
	}
	suites := [][2]any{{delta, page}, {delta32, page32}}
	samples := batchSamples(cfg, 24)
	const callers, rounds = 4, 40
	posted := make([]int, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pair Pair
			dc, ref := tensor.NewCtx(), tensor.NewCtx()
			var got []uint64
			for r := 0; r < rounds; r++ {
				suite := suites[(g+r)%len(suites)]
				dm, pm := suite[0].(DeltaModel), suite[1].(PageModel)
				s := samples[(g*7+r)%len(samples)]
				var scores []float64
				scores, got = pair.Run(dc, dm, pm, s, 2, got[:0])
				wantScores := dm.DeltaScoresCtx(ref, s)
				want := pm.TopPagesAppendCtx(ref, s, 2, nil)
				if !slices.Equal(scores, wantScores) || !slices.Equal(got, want) {
					t.Errorf("caller %d round %d: pair gave %v %v, in order %v %v", g, r, scores, got, wantScores, want)
				}
				dc.Reset()
				ref.Reset()
			}
			posted[g] = pair.Helped + pair.Claimed
		}(g)
	}
	wg.Wait()
	if slices.Max(posted) == 0 {
		t.Fatal("no page call was posted")
	}
}

// pairPanicPage is a page model whose calls panic.
type pairPanicPage struct{ PageModel }

func (pairPanicPage) TopPagesAppendCtx(*tensor.Ctx, *Sample, int, []uint64) []uint64 {
	panic("page model exploded")
}

// pairPanicDelta is a delta model whose calls panic, once its pair's page
// call has begun (pairBeganPage) when a helper may be running it — so the
// panic leaves while the page call is in flight.
type pairPanicDelta struct {
	DeltaModel
	began *atomic.Bool
}

func (d pairPanicDelta) DeltaScoresCtx(*tensor.Ctx, *Sample) []float64 {
	deadline := time.Now().Add(time.Second)
	for runtime.GOMAXPROCS(0) > 1 && !d.began.Load() && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	panic("delta model exploded")
}

type pairBeganPage struct {
	PageModel
	began *atomic.Bool
}

func (p pairBeganPage) TopPagesAppendCtx(c *tensor.Ctx, s *Sample, k int, dst []uint64) []uint64 {
	p.began.Store(true)
	return p.PageModel.TopPagesAppendCtx(c, s, k, dst)
}

// TestPairRaisesPanics: a page call's panic, wherever it ran, is raised on
// the caller's stack; a delta call's panic leaves through the caller with
// the page call withdrawn or waited out. Either way the pair is idle again
// and its next call, on another sample, gives the bits of the two calls in
// order.
func TestPairRaisesPanics(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	delta, page := NewAMMADelta(cfg, pcs, 0, 1), NewAMMAPage(cfg, pages, pcs, 0, 2)
	ss := batchSamples(cfg, 2)
	want := page.TopPagesAppendCtx(tensor.NewCtx(), ss[1], 1, nil)
	var began atomic.Bool
	for _, procs := range []int{1, 2} {
		for _, c := range []struct {
			dm   DeltaModel
			pm   PageModel
			what string
		}{
			{delta, pairPanicPage{page}, "page model exploded"},
			{pairPanicDelta{delta, &began}, pairBeganPage{page, &began}, "delta model exploded"},
		} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, c.what), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var pair Pair
				dc := tensor.NewCtx()
				for r := 0; r < 8; r++ {
					began.Store(false)
					func() {
						defer func() {
							if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), c.what) {
								t.Fatalf("round %d: recovered %v, want %q", r, v, c.what)
							}
						}()
						pair.Run(dc, c.dm, c.pm, ss[0], 1, nil)
					}()
					dc.Reset()
					if _, got := pair.Run(dc, delta, page, ss[1], 1, nil); !slices.Equal(got, want) {
						t.Fatalf("round %d: after a panic the pair gave %v, want %v", r, got, want)
					}
					dc.Reset()
				}
			})
		}
	}
}

package prefetch

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
)

// markerFB is a fallback stub whose output is recognisable and which counts
// how many accesses it has observed (warm-standby check).
type markerFB struct{ observed int }

func (*markerFB) Name() string { return "marker-fallback" }
func (f *markerFB) Operate(a sim.LLCAccess) []uint64 {
	f.observed++
	return []uint64{a.Block + 1000}
}

// panicPF panics on every Operate call.
type panicPF struct{}

func (panicPF) Name() string                   { return "panicky" }
func (panicPF) Operate(sim.LLCAccess) []uint64 { panic("model exploded") }

// farPF returns an out-of-range block.
type farPF struct{}

func (farPF) Name() string                   { return "far" }
func (farPF) Operate(sim.LLCAccess) []uint64 { return []uint64{1 << 60} }

// sickPF reports unhealthy after sickAfter calls.
type sickPF struct {
	calls, sickAfter int
}

func (*sickPF) Name() string { return "sick" }
func (p *sickPF) Operate(a sim.LLCAccess) []uint64 {
	p.calls++
	return []uint64{a.Block + 1}
}
func (p *sickPF) Health() error {
	if p.calls > p.sickAfter {
		return errors.New("scores went non-finite")
	}
	return nil
}

func TestGuardedTransparentWhenHealthy(t *testing.T) {
	fb := &markerFB{}
	g := NewGuarded(nextLine{degree: 2}, fb, GuardConfig{}, nil)
	if g.Name() != "nextline" {
		t.Fatalf("Name = %q, want primary's", g.Name())
	}
	for i := 0; i < 50; i++ {
		out := g.Operate(sim.LLCAccess{Block: uint64(100 + i)})
		if len(out) != 2 || out[0] != uint64(100+i)+1 {
			t.Fatalf("healthy guarded output %v differs from primary", out)
		}
	}
	if g.Quarantined() || g.Violations() != 0 {
		t.Fatal("healthy primary must not accrue violations")
	}
	if fb.observed != 50 {
		t.Fatalf("fallback observed %d of 50 accesses; warm standby broken", fb.observed)
	}
}

func TestGuardedRecoversPanicsAndQuarantines(t *testing.T) {
	events := &resilience.Log{}
	fb := &markerFB{}
	g := NewGuarded(panicPF{}, fb, GuardConfig{MaxViolations: 3}, events)
	for i := 0; i < 5; i++ {
		out := g.Operate(sim.LLCAccess{Block: uint64(i)})
		if len(out) != 1 || out[0] != uint64(i)+1000 {
			t.Fatalf("access %d: output %v, want fallback's", i, out)
		}
	}
	if !g.Quarantined() {
		t.Fatal("3 panics must quarantine the primary")
	}
	if g.Violations() != 3 {
		t.Fatalf("violations = %d: quarantined primary must not run again", g.Violations())
	}
	if events.Count("prefetch/panicky", "panic-recovered") != 3 {
		t.Fatalf("events:\n%v", events.Events())
	}
	if events.Count("prefetch/panicky", "quarantine") != 1 {
		t.Fatal("missing quarantine event")
	}
	// The recovered panic detail must carry the boundary and panic value.
	for _, e := range events.Events() {
		if e.Action == "panic-recovered" && !strings.Contains(e.Detail, "model exploded") {
			t.Fatalf("panic detail lost: %q", e.Detail)
		}
	}
}

func TestGuardedScreensOutOfRange(t *testing.T) {
	events := &resilience.Log{}
	g := NewGuarded(farPF{}, &markerFB{}, GuardConfig{MaxBlock: 1 << 52, MaxViolations: 1}, events)
	out := g.Operate(sim.LLCAccess{Block: 7})
	if len(out) != 1 || out[0] != 1007 {
		t.Fatalf("out-of-range output must be replaced by fallback, got %v", out)
	}
	if !g.Quarantined() || events.Count("prefetch/far", "out-of-range") != 1 {
		t.Fatalf("quarantined=%v events=%v", g.Quarantined(), events.Events())
	}
}

func TestGuardedConsultsHealthReporter(t *testing.T) {
	events := &resilience.Log{}
	p := &sickPF{sickAfter: 10}
	g := NewGuarded(p, &markerFB{}, GuardConfig{MaxViolations: 2}, events)
	for i := 0; i < 10; i++ {
		if out := g.Operate(sim.LLCAccess{Block: uint64(i)}); out[0] != uint64(i)+1 {
			t.Fatal("healthy phase must pass primary output")
		}
	}
	for i := 10; i < 14; i++ {
		g.Operate(sim.LLCAccess{Block: uint64(i)})
	}
	if !g.Quarantined() || events.Count("prefetch/sick", "model-health") != 2 {
		t.Fatalf("quarantined=%v events=%v", g.Quarantined(), events.Events())
	}
}

func TestGuardedLatencyBudget(t *testing.T) {
	events := &resilience.Log{}
	var now int64
	clock := func() int64 {
		now += 500 // every clock read advances 500ns: each inference "takes" 500ns
		return now
	}
	g := NewGuarded(nextLine{degree: 1}, &markerFB{},
		GuardConfig{LatencyBudgetNS: 100, MaxViolations: 2, Now: clock}, events)
	g.Operate(sim.LLCAccess{Block: 1})
	g.Operate(sim.LLCAccess{Block: 2})
	if !g.Quarantined() || events.Count("prefetch/nextline", "latency-budget") != 2 {
		t.Fatalf("quarantined=%v events=%v", g.Quarantined(), events.Events())
	}
}

func TestGuardedLatencyCyclesFollowServing(t *testing.T) {
	g := NewGuarded(fixedLatencyPF2{}, nextLine{degree: 1}, GuardConfig{}, nil)
	if g.InferenceLatencyCycles() != 42 {
		t.Fatal("healthy: primary latency")
	}
	g.quarantined = true
	if g.InferenceLatencyCycles() != 0 {
		t.Fatal("quarantined: fallback latency")
	}
}

// TestGuardedDegradesOnNaNModel is the end-to-end screen: a trained
// Delta-LSTM whose parameters are poisoned with NaN must trip score
// screening, flip its Health, and be quarantined by the wrapper — while the
// BO fallback keeps serving prefetches. The NaN sits in an input weight, which
// reaches the gates through the product hoisted out of the step loop, or in a
// recurrent one, which reaches them inside it.
func TestGuardedDegradesOnNaNModel(t *testing.T) {
	for param, name := range []string{"Wx", "Wh"} {
		t.Run(name, func(t *testing.T) {
			ds, delta, _ := tinyTrainedModels(t)
			T := ds.Cfg.HistoryT
			primary := NewDeltaLSTM(delta, T, MLOptions{Degree: 6})
			events := &resilience.Log{}
			g := NewGuarded(primary, NewBO(DefaultBOConfig()), GuardConfig{MaxViolations: 3}, events)

			// Healthy warm-up: primary serves.
			for i := 0; i < T+5; i++ {
				g.Operate(sim.LLCAccess{Block: uint64(4096 + i), PC: 0x40})
			}
			if g.Violations() != 0 {
				t.Fatalf("healthy model accrued %d violations", g.Violations())
			}

			// Poison the model mid-run.
			delta.Params()[param].Data[0] = math.NaN()

			var out []uint64
			for i := 0; i < 20; i++ {
				out = g.Operate(sim.LLCAccess{Block: uint64(5000 + i*2), PC: 0x40})
			}
			if !g.Quarantined() {
				t.Fatal("NaN model must be quarantined")
			}
			if primary.Health() == nil {
				t.Fatal("primary must self-report the non-finite scores")
			}
			if events.Count("prefetch/delta-lstm", "model-health") == 0 ||
				events.Count("prefetch/delta-lstm", "quarantine") != 1 {
				t.Fatalf("events:\n%v", events.Events())
			}
			// BO has been warm the whole run: it still issues prefetches.
			if len(out) == 0 {
				t.Fatal("fallback must keep serving after quarantine")
			}
		})
	}
}

// flakyPF passes its inner prefetcher's result through, except that every
// third call it appends an out-of-range block first — a violation after the
// primary has run, which is when Guarded hands out the fallback's result.
type flakyPF struct {
	sim.Prefetcher
	calls int
	out   []uint64
}

func (p *flakyPF) Operate(a sim.LLCAccess) []uint64 {
	p.out = append(p.out[:0], p.Prefetcher.Operate(a)...)
	if p.calls++; p.calls%3 == 0 {
		p.out = append(p.out, 1<<60)
	}
	return p.out
}

// TestGuardedFallbackResultSurvivesPrimary pins the one place Guarded holds
// an Operate result across another prefetcher's call: fbOut, the warm BO
// fallback's own buffer, read after the primary (another BO here, the worst
// case for sharing) has run. Whatever Guarded returns must be what an
// untouched twin of the serving prefetcher returns.
func TestGuardedFallbackResultSurvivesPrimary(t *testing.T) {
	narrow := BOConfig{MaxOffset: 2, RoundLength: 64, ScoreMax: 31, RRSize: 256, Degree: 3}
	g := NewGuarded(&flakyPF{Prefetcher: NewBO(DefaultBOConfig())}, NewBO(narrow), GuardConfig{MaxViolations: 1 << 30}, nil)
	primaryTwin, fallbackTwin := NewBO(DefaultBOConfig()), NewBO(narrow)
	telling := 0
	for i := 0; i < 3000; i++ {
		a := sim.LLCAccess{Block: uint64(1<<20 + 5*i)}
		got := g.Operate(a)
		primary, fallback := primaryTwin.Operate(a), fallbackTwin.Operate(a)
		want := primary
		if (i+1)%3 == 0 {
			want = fallback // the primary violated: the fallback serves
			if !slices.Equal(primary, fallback) {
				telling++
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("access %d: guarded returned %v, the serving prefetcher's twin %v", i, got, want)
		}
	}
	if g.Quarantined() || g.Violations() != 1000 {
		t.Fatalf("quarantined=%v violations=%d, want 1000 tolerated", g.Quarantined(), g.Violations())
	}
	if telling < 900 {
		t.Fatalf("vacuous: primary and fallback disagreed on only %d fallback-served accesses", telling)
	}
}

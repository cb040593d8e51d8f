package serve

import (
	"math/rand"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/resilience"
	"mpgraph/internal/sim"
)

// ammaConfig builds a server config whose sessions run real (untrained)
// AMMA MPGraph prefetchers over shared models — the production shape (the
// experiments Runner shares one trained suite across every session) at
// test cost: weight values are irrelevant to the robustness and
// determinism contracts, but the inference kernels, per-session CSTP/PBOT
// state, phase detector, and batched-inference tier are all real. batch>0
// attaches a shared BatchScheduler, exercised through the per-chunk
// join/leave protocol.
func ammaConfig(tb testing.TB, batch int) Config {
	tb.Helper()
	return tierConfig(tb, batch, nil)
}

// tierConfig is ammaConfig on the precision tier convert builds from the
// float64 pair (models.ConvertSuiteF32 or the int8 weight codec); a nil
// convert keeps float64.
func tierConfig(tb testing.TB, batch int, convert tierConvert) Config {
	tb.Helper()
	cfg, psd, psp := tierModels(tb, convert)
	var sched *prefetch.BatchScheduler
	if batch > 0 {
		sched = prefetch.NewBatchScheduler(batch)
	}
	return Config{
		NewPrimary: func(ms core.ModelScheduler) (sim.Prefetcher, error) {
			opt := core.DefaultOptions()
			opt.Scheduler = ms
			det := phasedet.NewSoftKSWIN(phasedet.KSWINConfig{Seed: 7})
			return core.New(opt, cfg.HistoryT, det,
				append([]models.DeltaModel(nil), psd.Models...),
				append([]models.PageModel(nil), psp.Models...))
		},
		NewModelSession: func() core.ModelScheduler {
			if sched == nil {
				return nil
			}
			return sched.NewSession()
		},
		Events: &resilience.Log{},
	}
}

// tierConvert builds a precision tier's model pair from the float64 one.
type tierConvert func(models.DeltaModel, models.PageModel) (models.DeltaModel, models.PageModel, error)

// tierModels is the phase-specific AMMA pair every test server runs, on the
// tier convert builds (nil: float64).
func tierModels(tb testing.TB, convert tierConvert) (models.Config, *models.PhaseSpecificDelta, *models.PhaseSpecificPage) {
	tb.Helper()
	cfg := models.SmallConfig()
	var pcVals, pageVals []uint64
	for i := 0; i < 32; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	pcs := models.BuildVocab(pcVals, cfg.PCVocab)
	pages := models.BuildVocab(pageVals, cfg.PageVocab)
	const phases = 2
	psd := models.NewPhaseSpecificDelta(cfg, pcs, phases, 11)
	psp := models.NewPhaseSpecificPage(cfg, pages, pcs, phases, 12)
	if convert != nil {
		d, p, err := convert(psd, psp)
		if err != nil {
			tb.Fatal(err)
		}
		psd, psp = d.(*models.PhaseSpecificDelta), p.(*models.PhaseSpecificPage)
	}
	return cfg, psd, psp
}

// sessionEvents is session i's deterministic synthetic access stream:
// sequential cache-block walks with occasional page jumps and a hot PC set,
// fixed by (seed, i) alone so a session's prediction log is a pure function
// of its identity.
func sessionEvents(seed int64, i, n int) []Event {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	addr := uint64(1<<22) + uint64(i)<<14
	out := make([]Event, n)
	for j := range out {
		if rng.Float64() < 0.12 {
			addr = uint64(1<<22) + uint64(rng.Intn(1<<10))<<12
		} else {
			addr += 64
		}
		out[j] = Event{
			Addr: addr,
			PC:   0x400000 + 0x40*uint64(rng.Intn(8)),
			Core: uint8(rng.Intn(4)),
		}
	}
	return out
}

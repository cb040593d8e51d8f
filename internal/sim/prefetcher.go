package sim

// LLCAccess describes one demand access reaching the shared LLC, as seen by
// a prefetcher.
type LLCAccess struct {
	// Block is the cache-block address (byte address >> 6).
	Block uint64
	// PC is the program counter of the access.
	PC uint64
	// Core is the issuing core.
	Core uint8
	// Hit reports whether the access hit in the LLC.
	Hit bool
	// Write marks stores.
	Write bool
	// Phase is the ground-truth phase label carried by the trace. Deployed
	// prefetchers must not read it (they detect phases themselves); it
	// exists for oracle-phase ablations.
	Phase uint8
}

// Prefetcher is the LLC prefetcher interface, mirroring ChampSim's
// l2c_prefetcher_operate hook: it observes every demand access that reaches
// the LLC and returns block addresses to prefetch. Implementations train
// online (BO, ISB) or run pretrained models (Delta-LSTM, Voyager, TransFetch,
// MPGraph).
type Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// Operate observes acc and returns block addresses to prefetch into the
	// LLC. Returning nil issues nothing. The returned slice is only valid
	// until the next Operate call on the same prefetcher: the engine consumes
	// it immediately and never retains it, so implementations may return a
	// reused buffer. The ML prefetchers' zero-allocation fast path and all
	// seven classic prefetchers (BO, ISB, SMS, VLDP, Domino, Markov, IMP) do;
	// a caller that keeps a result across calls copies the slice.
	Operate(acc LLCAccess) []uint64
}

// HealthReporter is implemented by prefetchers that self-screen their model
// outputs (e.g. for non-finite scores). Health returns nil while the model is
// sound and the first detected defect afterwards; a degradation wrapper polls
// it after every Operate call and falls back once it goes non-nil.
type HealthReporter interface {
	Health() error
}

// InferenceLatency is implemented by prefetchers whose predictions come from
// a model with a non-zero inference delay; the simulator adds the reported
// cycles before a prefetch may issue (Section 6.2 of the paper).
type InferenceLatency interface {
	InferenceLatencyCycles() uint64
}

// nopPrefetcher is the no-prefetching baseline.
type nopPrefetcher struct{}

func (nopPrefetcher) Name() string               { return "none" }
func (nopPrefetcher) Operate(LLCAccess) []uint64 { return nil }

// NoPrefetcher returns the baseline that never prefetches.
func NoPrefetcher() Prefetcher { return nopPrefetcher{} }

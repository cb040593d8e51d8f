package prefetch

import (
	"mpgraph/internal/invariant"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// VLDPConfig parameterises the Variable Length Delta Prefetcher.
type VLDPConfig struct {
	// HistoryLen is the longest delta-history key (the original uses up to
	// 3 deltas; at most vldpMaxHistory).
	HistoryLen int
	// TableSize bounds each delta-history table (FIFO eviction).
	TableSize int
	// Degree is the prediction-chain walk length.
	Degree int
}

// DefaultVLDPConfig mirrors the MICRO 2015 proposal at degree 6.
func DefaultVLDPConfig() VLDPConfig { return VLDPConfig{HistoryLen: 3, TableSize: 4096, Degree: 6} }

// VLDP models the Variable Length Delta Prefetcher (Shevgoor et al., MICRO
// 2015), a rule-based spatial prefetcher the paper's related work discusses:
// per page, the recent delta history is matched against delta-history
// tables of increasing key length, longer matches taking precedence; the
// predicted delta chain generates prefetches within the page region.
type VLDP struct {
	cfg VLDPConfig
	// tables[k] maps a (k+1)-delta history key to the next delta.
	tables []map[vldpHistory]int64
	fifos  []ring[vldpHistory]
	// per-page last block and delta history.
	pages     map[uint64]*vldpPage
	pageFIFO  ring[uint64]
	pageLimit int
	out       []uint64
}

// vldpMaxHistory is the widest delta history a table key holds.
const vldpMaxHistory = 4

// vldpHistory is a delta history, newest delta first, zero past its length
// (an observed delta is never 0). It doubles as the table key: tables[k] is
// keyed by the k+1 newest deltas, and since every key of one table has the
// same length the zero padding cannot make two histories collide.
type vldpHistory [vldpMaxHistory]int64

// push makes d the newest delta of an n-delta history, forgets what falls
// beyond keep deltas, and returns the new length.
func (h *vldpHistory) push(d int64, n, keep int) int {
	copy(h[1:], h[:])
	h[0] = d
	for i := keep; i < len(h); i++ {
		h[i] = 0
	}
	return min(n+1, keep)
}

type vldpPage struct {
	lastBlock uint64
	history   vldpHistory
	n         int // deltas in history, at most HistoryLen
}

// NewVLDP builds the prefetcher.
func NewVLDP(cfg VLDPConfig) *VLDP {
	invariant.Checkf(cfg.HistoryLen <= vldpMaxHistory, "prefetch: VLDP history %d exceeds the %d-delta table key", cfg.HistoryLen, vldpMaxHistory)
	cfg.HistoryLen = max(cfg.HistoryLen, 0)
	v := &VLDP{cfg: cfg, pages: make(map[uint64]*vldpPage), pageLimit: 256}
	v.pageFIFO = newRing[uint64](v.pageLimit)
	for k := 0; k < cfg.HistoryLen; k++ {
		v.tables = append(v.tables, make(map[vldpHistory]int64))
		v.fifos = append(v.fifos, newRing[vldpHistory](cfg.TableSize))
	}
	return v
}

// Name implements sim.Prefetcher.
func (v *VLDP) Name() string { return "vldp" }

// Operate implements sim.Prefetcher.
func (v *VLDP) Operate(acc sim.LLCAccess) []uint64 {
	page := trace.PageOfBlock(acc.Block)
	st, ok := v.pages[page]
	if !ok {
		old, full := v.pageFIFO.push(page)
		if full {
			st = v.pages[old]
			delete(v.pages, old)
		} else {
			st = new(vldpPage)
		}
		*st = vldpPage{lastBlock: acc.Block}
		v.pages[page] = st
		return nil
	}
	delta := int64(acc.Block) - int64(st.lastBlock)
	st.lastBlock = acc.Block
	if delta == 0 {
		return nil
	}
	// Train every history length with the observed delta: key holds the k+1
	// newest deltas as the loop reaches table k.
	var key vldpHistory
	for k := 0; k < st.n; k++ {
		key[k] = st.history[k]
		if _, exists := v.tables[k][key]; !exists {
			if old, full := v.fifos[k].push(key); full {
				delete(v.tables[k], old)
			}
		}
		v.tables[k][key] = delta
	}
	st.n = st.history.push(delta, st.n, v.cfg.HistoryLen)

	// Predict: walk a chain, each step matched with the longest available
	// history.
	out := v.out[:0]
	hist, n := st.history, st.n
	block := acc.Block
	for i := 0; i < v.cfg.Degree; i++ {
		next, ok := v.lookup(hist, n)
		if !ok {
			break
		}
		t := int64(block) + next
		if t < 0 {
			break
		}
		block = uint64(t)
		out = append(out, block)
		n = hist.push(next, n, v.cfg.HistoryLen)
	}
	v.out = out
	return out
}

// lookup returns the predicted next delta for the longest matching history
// among the n newest deltas of hist.
func (v *VLDP) lookup(hist vldpHistory, n int) (int64, bool) {
	for k := n - 1; k >= 0; k-- {
		if d, ok := v.tables[k][hist]; ok {
			return d, true
		}
		hist[k] = 0
	}
	return 0, false
}

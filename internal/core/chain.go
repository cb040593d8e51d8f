package core

import (
	"fmt"
	"slices"

	"mpgraph/internal/models"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// ChainStats counts what a controller's CSTP chains did. Like Transitions
// these are for introspection only: nothing here reaches report or replay
// bytes.
type ChainStats struct {
	Operates   int // Operate calls, warm or not
	ModelCalls int // delta and page model evaluations, probation included
	ChainSteps int // temporal steps that reached a tail not yet visited

	// Chains ended early, by cause (the rest ran out of temporal depth).
	Revisits    int // the page model led back to a tail this chain already evaluated
	PBOTMisses  int // predicted page has no PBOT entry
	BudgetStops int // Eq. 11 degree budget spent
}

// chain is the inference half both controllers share: the per-phase
// predictors, the PBOT, and the CSTP loop with the arena and scratch buffers
// it runs on. The controllers differ only in which (history, phase) pair
// they hand it.
type chain struct {
	opt    Options
	deltas []models.DeltaModel // one per phase
	pages  []models.PageModel
	pbot   *PBOT

	// Inference runs on a per-instance arena plus reusable scratch buffers,
	// so a steady-state Operate call allocates nothing.
	ctx         *tensor.Ctx
	sampScratch models.Sample
	tailScratch models.Sample
	out         []uint64
	deltaBuf    []uint64
	pageBuf     []uint64
	visited     []chainTail

	// health holds the first model defect detected by score screening.
	health error

	ChainStats
}

// chainTail identifies a chain state within one Operate: every tail sample
// is the fixed history window plus this one (base, PC) pair.
type chainTail struct{ base, pc uint64 }

func newChain(opt Options, deltas []models.DeltaModel, pages []models.PageModel) (chain, error) {
	if len(deltas) == 0 || len(deltas) != len(pages) {
		return chain{}, fmt.Errorf("core: need matching per-phase delta/page models, got %d/%d", len(deltas), len(pages))
	}
	if opt.SpatialDegree <= 0 || opt.TemporalDegree < 0 {
		return chain{}, fmt.Errorf("core: bad degrees Ds=%d Dt=%d", opt.SpatialDegree, opt.TemporalDegree)
	}
	if opt.InferEvery <= 0 {
		opt.InferEvery = 1
	}
	return chain{
		opt:     opt,
		deltas:  deltas,
		pages:   pages,
		pbot:    NewPBOT(opt.PBOTSize),
		ctx:     tensor.NewCtx(),
		visited: make([]chainTail, 0, opt.TemporalDegree),
	}, nil
}

// InferenceLatencyCycles implements sim.InferenceLatency.
func (c *chain) InferenceLatencyCycles() uint64 { return c.opt.LatencyCycles }

// Health implements sim.HealthReporter: nil until score screening detects a
// non-finite model output, then the first such defect.
func (c *chain) Health() error { return c.health }

// JoinBatch registers this instance's scheduler session with the batch flush
// watermark (no-op without a scheduler).
func (c *chain) JoinBatch() {
	if c.opt.Scheduler != nil {
		c.opt.Scheduler.Join()
	}
}

// LeaveBatch unregisters the scheduler session (no-op without a scheduler).
func (c *chain) LeaveBatch() {
	if c.opt.Scheduler != nil {
		c.opt.Scheduler.Leave()
	}
}

// deltaTargets is the one delta decode cstp and probation use: scores come
// through the batch scheduler when one is attached and from the in-process
// path otherwise, and either way are screened for non-finite values and
// decoded on c.ctx. A screening failure latches the health defect and
// appends nothing, so no prefetch is ever ranked by NaN.
func (c *chain) deltaTargets(dm models.DeltaModel, s *models.Sample, base uint64, dst []uint64) []uint64 {
	c.ModelCalls++
	var scores []float64
	if c.opt.Scheduler != nil {
		scores = c.opt.Scheduler.DeltaScores(dm, s)
	} else {
		scores = models.DeltaScoresWith(c.ctx, dm, s)
	}
	dst, err := models.AppendDeltaTargets(c.ctx, scores, base, c.opt.SpatialDegree, dst)
	if err != nil && c.health == nil {
		c.health = err
	}
	return dst
}

// topPage is the page-model counterpart of deltaTargets.
func (c *chain) topPage(pm models.PageModel, s *models.Sample, dst []uint64) []uint64 {
	c.ModelCalls++
	if c.opt.Scheduler != nil {
		return c.opt.Scheduler.TopPages(pm, s, 1, dst)
	}
	return models.TopPagesWith(c.ctx, pm, s, 1, dst)
}

// cstp performs chain spatio-temporal prefetching (Fig. 8) from block, the
// newest entry of hist, with the given phase's predictors.
func (c *chain) cstp(hist *models.History, phase int, block uint64) []uint64 {
	maxDegree := c.opt.MaxTotalDegree()
	out := c.out[:0]
	visited := c.visited[:0]
	sample := hist.SampleInto(&c.sampScratch, phase)
	delta := c.deltas[phase%len(c.deltas)]
	page := c.pages[phase%len(c.pages)]

	// Step 0: spatial deltas at the current block.
	c.deltaBuf = c.deltaTargets(delta, sample, block, c.deltaBuf[:0])
	for _, b := range c.deltaBuf {
		out = addUnique(out, b, maxDegree)
	}

	// Temporal chain: predicted page -> PBOT offset -> further spatial and
	// temporal inference, until the degree budget, a missing PBOT entry, a
	// revisited tail, or the temporal depth ends it. History and phase are
	// fixed within an Operate and the models are pure, so a tail seen before
	// would replay the steps that followed it, every block of which is
	// already in out.
	cur := sample
	for step := 0; step < c.opt.TemporalDegree; step++ {
		c.pageBuf = c.topPage(page, cur, c.pageBuf[:0])
		if len(c.pageBuf) == 0 {
			break
		}
		entry, ok := c.pbot.Lookup(c.pageBuf[0])
		if !ok {
			c.PBOTMisses++
			break
		}
		tail := chainTail{trace.BlockOfPageOffset(c.pageBuf[0], entry.Offset), entry.PC}
		if slices.Contains(visited, tail) {
			c.Revisits++
			break
		}
		visited = append(visited, tail)
		c.ChainSteps++
		out = addUnique(out, tail.base, maxDegree)
		cur = hist.SampleWithTailInto(&c.tailScratch, phase, tail.base, tail.pc)
		c.deltaBuf = c.deltaTargets(delta, cur, tail.base, c.deltaBuf[:0])
		for _, b := range c.deltaBuf {
			out = addUnique(out, b, maxDegree)
		}
		if len(out) >= maxDegree {
			c.BudgetStops++
			break
		}
	}
	c.out, c.visited = out, visited
	return out
}

// addUnique appends b to out unless it is already present or the degree
// budget is spent — a linear scan, because maxDegree is at most Ds·(Dt+1)
// (6 at paper settings).
func addUnique(out []uint64, b uint64, maxDegree int) []uint64 {
	if len(out) >= maxDegree || slices.Contains(out, b) {
		return out
	}
	return append(out, b)
}

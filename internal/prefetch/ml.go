package prefetch

import (
	"mpgraph/internal/models"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// MLOptions tunes the ML baseline prefetchers.
type MLOptions struct {
	// Degree is the total prefetch degree (6 for all baselines, Section
	// 5.4.1).
	Degree int
	// InferEvery throttles inference to every k-th LLC access (1 = every
	// access); predictions persist between inferences.
	InferEvery int
	// LatencyCycles is the model inference latency reported to the
	// simulator.
	LatencyCycles uint64
	// Scheduler, when non-nil, routes model calls through a shared
	// BatchScheduler so concurrent sweep workers share fused inference
	// rounds.
	Scheduler *BatchScheduler
}

func (o MLOptions) withDefaults() MLOptions {
	if o.Degree <= 0 {
		o.Degree = 6
	}
	if o.InferEvery <= 0 {
		o.InferEvery = 1
	}
	return o
}

// newSession attaches the prefetcher to the shared batch scheduler, if any.
func (o MLOptions) newSession() *BatchSession {
	if o.Scheduler == nil {
		return nil
	}
	return o.Scheduler.NewSession()
}

// inferGate bundles the warmup/throttle logic shared by every ML
// prefetcher: push the access into the history window, then gate inference
// on the window being warm and on the InferEvery throttle.
type inferGate struct {
	hist  *models.History
	every int
	tick  int
}

func newInferGate(historyT, inferEvery int) inferGate {
	return inferGate{hist: models.NewHistory(historyT), every: inferEvery}
}

// observe records the access and reports whether to infer on this tick.
func (g *inferGate) observe(block, pc uint64) bool {
	g.hist.Push(block, pc)
	g.tick++
	return g.hist.Warm() && g.tick%g.every == 0
}

// DeltaLSTM is the Delta-LSTM baseline (Hashemi et al. 2018): a pretrained
// LSTM over delta/PC history predicting the top future deltas.
type DeltaLSTM struct {
	opt     MLOptions
	model   models.DeltaModel
	gate    inferGate
	ctx     *tensor.Ctx
	sess    *BatchSession
	scratch models.Sample
	out     []uint64
	health  error
}

// NewDeltaLSTM wraps a trained delta model (expected: models.LSTMDelta).
func NewDeltaLSTM(model models.DeltaModel, historyT int, opt MLOptions) *DeltaLSTM {
	opt = opt.withDefaults()
	return &DeltaLSTM{opt: opt, model: model, gate: newInferGate(historyT, opt.InferEvery), ctx: tensor.NewCtx(), sess: opt.newSession()}
}

// Name implements sim.Prefetcher.
func (p *DeltaLSTM) Name() string { return "delta-lstm" }

// InferenceLatencyCycles implements sim.InferenceLatency.
func (p *DeltaLSTM) InferenceLatencyCycles() uint64 { return p.opt.LatencyCycles }

// Health implements sim.HealthReporter.
func (p *DeltaLSTM) Health() error { return p.health }

// JoinBatch registers this prefetcher's session with the shared batch
// scheduler's flush watermark (no-op without a scheduler).
func (p *DeltaLSTM) JoinBatch() { p.sess.join() }

// LeaveBatch unregisters the session (no-op without a scheduler).
func (p *DeltaLSTM) LeaveBatch() { p.sess.leave() }

// Operate implements sim.Prefetcher.
func (p *DeltaLSTM) Operate(acc sim.LLCAccess) []uint64 {
	if !p.gate.observe(acc.Block, acc.PC) {
		return nil
	}
	defer p.ctx.Reset()
	s := p.gate.hist.SampleInto(&p.scratch, 0)
	var err error
	if p.sess != nil {
		scores := p.sess.DeltaScores(p.model, s)
		p.out, err = models.AppendDeltaTargets(p.ctx, scores, acc.Block, p.opt.Degree, p.out[:0])
	} else {
		p.out, err = deltaPrefetchesAppend(p.ctx, p.model, s, acc.Block, p.opt.Degree, p.out[:0])
	}
	p.health = keepFirst(p.health, err)
	return p.out
}

// TransFetch is the TransFetch baseline (Zhang et al. 2022): an
// attention-based delta predictor with fine-grained address segmentation.
type TransFetch struct {
	opt     MLOptions
	model   models.DeltaModel
	gate    inferGate
	ctx     *tensor.Ctx
	sess    *BatchSession
	scratch models.Sample
	out     []uint64
	health  error
}

// NewTransFetch wraps a trained delta model (expected: models.AttnDelta).
func NewTransFetch(model models.DeltaModel, historyT int, opt MLOptions) *TransFetch {
	opt = opt.withDefaults()
	return &TransFetch{opt: opt, model: model, gate: newInferGate(historyT, opt.InferEvery), ctx: tensor.NewCtx(), sess: opt.newSession()}
}

// Name implements sim.Prefetcher.
func (p *TransFetch) Name() string { return "transfetch" }

// InferenceLatencyCycles implements sim.InferenceLatency.
func (p *TransFetch) InferenceLatencyCycles() uint64 { return p.opt.LatencyCycles }

// Health implements sim.HealthReporter.
func (p *TransFetch) Health() error { return p.health }

// JoinBatch registers this prefetcher's session with the shared batch
// scheduler's flush watermark (no-op without a scheduler).
func (p *TransFetch) JoinBatch() { p.sess.join() }

// LeaveBatch unregisters the session (no-op without a scheduler).
func (p *TransFetch) LeaveBatch() { p.sess.leave() }

// Operate implements sim.Prefetcher.
func (p *TransFetch) Operate(acc sim.LLCAccess) []uint64 {
	if !p.gate.observe(acc.Block, acc.PC) {
		return nil
	}
	defer p.ctx.Reset()
	s := p.gate.hist.SampleInto(&p.scratch, 0)
	var err error
	if p.sess != nil {
		scores := p.sess.DeltaScores(p.model, s)
		p.out, err = models.AppendDeltaTargets(p.ctx, scores, acc.Block, p.opt.Degree, p.out[:0])
	} else {
		p.out, err = deltaPrefetchesAppend(p.ctx, p.model, s, acc.Block, p.opt.Degree, p.out[:0])
	}
	p.health = keepFirst(p.health, err)
	return p.out
}

// Voyager is the Voyager baseline (Shi et al. 2021): two models — a page
// predictor and an offset/delta predictor — whose predictions compose into
// prefetch addresses. The predicted page is based at its last-seen offset
// (tracked per page), where the offset model's deltas apply.
type Voyager struct {
	opt        MLOptions
	pageModel  models.PageModel
	deltaModel models.DeltaModel
	gate       inferGate
	ctx        *tensor.Ctx
	sess       *BatchSession
	scratch    models.Sample
	out        []uint64
	pages      []uint64
	lastOffset map[uint64]uint64
	fifo       ring[uint64]
	health     error
}

// voyagerPages bounds the pages Voyager remembers a last offset for.
const voyagerPages = 4096

// NewVoyager wraps trained page and delta models (expected: LSTM-based).
func NewVoyager(pageModel models.PageModel, deltaModel models.DeltaModel, historyT int, opt MLOptions) *Voyager {
	opt = opt.withDefaults()
	return &Voyager{
		opt:        opt,
		pageModel:  pageModel,
		deltaModel: deltaModel,
		gate:       newInferGate(historyT, opt.InferEvery),
		ctx:        tensor.NewCtx(),
		sess:       opt.newSession(),
		lastOffset: make(map[uint64]uint64),
		fifo:       newRing[uint64](voyagerPages),
	}
}

// Name implements sim.Prefetcher.
func (p *Voyager) Name() string { return "voyager" }

// InferenceLatencyCycles implements sim.InferenceLatency.
func (p *Voyager) InferenceLatencyCycles() uint64 { return p.opt.LatencyCycles }

// Health implements sim.HealthReporter.
func (p *Voyager) Health() error { return p.health }

// JoinBatch registers this prefetcher's session with the shared batch
// scheduler's flush watermark (no-op without a scheduler).
func (p *Voyager) JoinBatch() { p.sess.join() }

// LeaveBatch unregisters the session (no-op without a scheduler).
func (p *Voyager) LeaveBatch() { p.sess.leave() }

// Operate implements sim.Prefetcher.
func (p *Voyager) Operate(acc sim.LLCAccess) []uint64 {
	page := trace.PageOfBlock(acc.Block)
	if _, seen := p.lastOffset[page]; !seen {
		if victim, full := p.fifo.push(page); full {
			delete(p.lastOffset, victim)
		}
	}
	p.lastOffset[page] = trace.BlockOffset(acc.Block)
	if !p.gate.observe(acc.Block, acc.PC) {
		return nil
	}
	defer p.ctx.Reset()
	s := p.gate.hist.SampleInto(&p.scratch, 0)
	p.out = p.predict(p.ctx, s, acc.Block, p.out[:0])
	return p.out
}

// predict composes the page and delta model outputs into prefetch targets:
// half the degree goes spatially at the current block, half at the
// predicted page. The delta score vector is inferred once and decoded at
// both bases. Screening failures are recorded as the prefetcher's first
// health defect. With a batch session both models route through the shared
// scheduler (whose score slice is session-owned and stable across the
// TopPages call); without one they run on c, whose arena keeps the scores
// alive until Operate resets it.
func (p *Voyager) predict(c *tensor.Ctx, s *models.Sample, block uint64, out []uint64) []uint64 {
	var scores []float64
	if p.sess != nil {
		scores = p.sess.DeltaScores(p.deltaModel, s)
	} else {
		scores = models.DeltaScoresWith(c, p.deltaModel, s)
	}
	var err error
	out, err = models.AppendDeltaTargets(c, scores, block, p.opt.Degree/2, out)
	p.health = keepFirst(p.health, err)
	if p.sess != nil {
		p.pages = p.sess.TopPages(p.pageModel, s, 1, p.pages[:0])
	} else {
		p.pages = models.TopPagesWith(c, p.pageModel, s, 1, p.pages[:0])
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

// keepFirst retains the first non-nil error a prefetcher observes, so Health
// reports the original defect rather than the most recent repetition.
func keepFirst(health, err error) error {
	if health != nil {
		return health
	}
	return err
}

// deltaPrefetchesAppend appends up to k prefetch targets derived from the
// delta model's top classes to dst; the scores, ranking scratch and result
// all reuse per-prefetcher buffers. Scores are screened
// for non-finite values; on a screening failure dst is returned unmodified
// alongside the error so callers record the health defect instead of issuing
// prefetches ranked by NaN.
func deltaPrefetchesAppend(c *tensor.Ctx, m models.DeltaModel, s *models.Sample, base uint64, k int, dst []uint64) ([]uint64, error) {
	if k <= 0 {
		return dst, nil
	}
	return models.AppendDeltaTargets(c, models.DeltaScoresWith(c, m, s), base, k, dst)
}

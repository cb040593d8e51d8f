package prefetch

import (
	"mpgraph/internal/models"
	"mpgraph/internal/ring"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// MLOptions tunes the ML baseline prefetchers. Every baseline infers on
// every LLC access once its history window is warm (Section 5.4.1).
type MLOptions struct {
	// Degree is the total prefetch degree (6 for all baselines, Section
	// 5.4.1).
	Degree int
}

func (o MLOptions) withDefaults() MLOptions {
	if o.Degree <= 0 {
		o.Degree = 6
	}
	return o
}

// DeltaPrefetcher is a delta-only ML baseline: a pretrained model over
// delta/PC history predicting the top future deltas. Delta-LSTM and
// TransFetch are this prefetcher over different models.
type DeltaPrefetcher struct {
	name    string
	opt     MLOptions
	model   models.DeltaModel
	hist    *models.History
	ctx     *tensor.Ctx
	scratch models.Sample
	out     []uint64
	health  error
}

// NewDeltaLSTM is the Delta-LSTM baseline (Hashemi et al. 2018) over a
// trained delta model (expected: models.LSTMDelta).
func NewDeltaLSTM(model models.DeltaModel, historyT int, opt MLOptions) *DeltaPrefetcher {
	return newDeltaPrefetcher("delta-lstm", model, historyT, opt)
}

// NewTransFetch is the TransFetch baseline (Zhang et al. 2022), an
// attention-based delta predictor with fine-grained address segmentation
// (expected: models.AttnDelta).
func NewTransFetch(model models.DeltaModel, historyT int, opt MLOptions) *DeltaPrefetcher {
	return newDeltaPrefetcher("transfetch", model, historyT, opt)
}

func newDeltaPrefetcher(name string, model models.DeltaModel, historyT int, opt MLOptions) *DeltaPrefetcher {
	opt = opt.withDefaults()
	return &DeltaPrefetcher{name: name, opt: opt, model: model, hist: models.NewHistory(historyT), ctx: tensor.NewCtx()}
}

// Name implements sim.Prefetcher.
func (p *DeltaPrefetcher) Name() string { return p.name }

// Health implements sim.HealthReporter.
func (p *DeltaPrefetcher) Health() error { return p.health }

// Operate implements sim.Prefetcher.
func (p *DeltaPrefetcher) Operate(acc sim.LLCAccess) []uint64 {
	p.hist.Push(acc.Block, acc.PC)
	if !p.hist.Warm() {
		return nil
	}
	defer p.ctx.Reset()
	s := p.hist.SampleInto(&p.scratch, 0)
	var err error
	p.out, err = deltaPrefetchesAppend(p.ctx, p.model, s, acc.Block, p.opt.Degree, p.out[:0])
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
	hist       *models.History
	ctx        *tensor.Ctx
	pair       models.Pair // the page call beside the delta call
	scratch    models.Sample
	out        []uint64
	pages      []uint64
	lastOffset map[uint64]uint64
	fifo       ring.Ring[uint64]
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
		hist:       models.NewHistory(historyT),
		ctx:        tensor.NewCtx(),
		lastOffset: make(map[uint64]uint64),
		fifo:       ring.New[uint64](voyagerPages),
	}
}

// Name implements sim.Prefetcher.
func (p *Voyager) Name() string { return "voyager" }

// Health implements sim.HealthReporter.
func (p *Voyager) Health() error { return p.health }

// Operate implements sim.Prefetcher.
func (p *Voyager) Operate(acc sim.LLCAccess) []uint64 {
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

// predict composes the page and delta model outputs into prefetch targets:
// half the degree goes spatially at the current block, half at the
// predicted page. The delta score vector is inferred once and decoded at
// both bases. Screening failures are recorded as the prefetcher's first
// health defect. The two calls run side by side on p.pair, the delta call on
// c, whose arena keeps the scores alive until Operate resets it.
func (p *Voyager) predict(c *tensor.Ctx, s *models.Sample, block uint64, out []uint64) []uint64 {
	var scores []float64
	scores, p.pages = p.pair.Run(c, p.deltaModel, p.pageModel, s, 1, p.pages[:0])
	var err error
	out, err = models.AppendDeltaTargets(c, scores, block, p.opt.Degree/2, out)
	p.health = keepFirst(p.health, err)
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
	return models.AppendDeltaTargets(c, m.DeltaScoresCtx(c, s), base, k, dst)
}

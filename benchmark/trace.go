package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/phasedet"
	"mpgraph/internal/sim"
	"mpgraph/internal/tensor"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer (spans inside the program are a later change). A
// span is written for each pass, simulation, trace generation, session,
// chunk request and server-side handler call. Per-access boundaries —
// Operate, Observe, a model call — are far too frequent for a span each
// (a classic prefetcher's Operate is ~100 ns, one time.Now on this class of
// host ~90 ns), so they are aggregated on their parent span as a call count
// plus busy time; the classic prefetchers' time is estimated from
// 1-in-sampleEvery timed calls.

// sampleEvery is the period of the sampled Operate timers around classic
// prefetchers; it is prime so it cannot lock onto a power-of-two period in
// the prefetcher's own work. The ML prefetchers' Operate costs tens of
// microseconds, so every one of their calls is timed (samplePeriod) — which
// matters for Soft-KSWIN, whose cost is concentrated in every n-th Observe.
const sampleEvery = 17

// samplePeriod is the timer period for the prefetcher called name.
func samplePeriod(name string) uint64 {
	for _, c := range classicNames {
		if c == name {
			return sampleEvery
		}
	}
	if name == "none" {
		return sampleEvery
	}
	return 1
}

// agg is one aggregated boundary on a span.
type agg struct {
	Name    string `json:"name"`
	Calls   uint64 `json:"calls"`
	Sampled uint64 `json:"sampled_calls"`
	// BusyNS is the estimate for all calls: sampled time × calls/sampled.
	BusyNS int64 `json:"busy_ns"`
}

// span is one traced interval. Spans of one request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Aggs   []agg  `json:"aggs,omitempty"`
}

// tracer keeps spans in memory until the run ends. The nil tracer is valid
// and records nothing, so workload code calls it unconditionally.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) start(name string, parent, req uint64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name,
		Start: t.now(),
	}}
}

// id is the span's identifier (0 for the nil span).
func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end(aggs ...agg) {
	if o == nil {
		return
	}
	o.endAt(o.t.now(), aggs...)
}

func (o *openSpan) endAt(end int64, aggs ...agg) {
	if o == nil {
		return
	}
	o.s.End = end
	o.s.Aggs = aggs
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// now is the tracer clock: nanoseconds since the run's first span could start.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// record adds a span whose interval was observed elsewhere (a session's
// open-to-last-chunk interval, kept by its prefetcher's probe).
func (t *tracer) record(name string, parent uint64, start, end int64, aggs []agg) {
	if t == nil {
		return
	}
	o := t.start(name, parent, 0)
	o.s.Start = start
	o.endAt(end, aggs...)
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON.
func (t *tracer) write(path string, env envHeader, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	err = enc.Encode(struct {
		Env      envHeader `json:"env"`
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []span    `json:"spans"`
	}{env, workload, seed, t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// opProbe accumulates the per-access boundaries of one prefetcher instance.
// A prefetcher is driven by one goroutine at a time, so the fields need no
// lock; they are read after the simulation or session has finished.
//
// Sampling is coherent: when an Operate call is timed, the detector and
// model calls nested in it are timed too, so controller self time (Operate −
// detector − model) comes from the same sample.
type opProbe struct {
	name  string
	every uint64

	calls, sampled uint64
	opNS           int64
	detNS, modelNS int64
	modelCalls     uint64
	issued         uint64
	maxDegree      int
	sampling       bool

	// opened/lastLeave bound the session span of a served prefetcher:
	// construction to its last LeaveBatch (one per chunk).
	opened, lastLeave int64
}

// scale turns a sampled time into the estimate for all calls.
func (p *opProbe) scale(ns int64) int64 {
	if p.sampled == 0 {
		return 0
	}
	return int64(float64(ns) * float64(p.calls) / float64(p.sampled))
}

// aggs renders the probe as span aggregates.
func (p *opProbe) aggs() []agg {
	out := []agg{{Name: "operate", Calls: p.calls, Sampled: p.sampled, BusyNS: p.scale(p.opNS)}}
	if p.modelCalls > 0 {
		out = append(out,
			agg{Name: "detector", Calls: p.calls, Sampled: p.sampled, BusyNS: p.scale(p.detNS)},
			agg{Name: "model", Calls: p.modelCalls, Sampled: p.sampled, BusyNS: p.scale(p.modelNS)})
	}
	return out
}

// timedPrefetcher is the timing decorator around sim.Prefetcher. It must be
// transparent: the optional interfaces the engine, Guarded and serve probe
// for are forwarded, and the self-test pins decorated ≡ bare sim.Metrics.
type timedPrefetcher struct {
	inner sim.Prefetcher
	p     *opProbe
	now   func() int64 // tracer clock, for lastLeave
	// mp is the instrumented MPGraph behind inner, when there is one (its
	// Transitions counter is a per-layer metric).
	mp *core.MPGraph
}

func newTimedPrefetcher(inner sim.Prefetcher) *timedPrefetcher {
	return &timedPrefetcher{inner: inner, p: &opProbe{name: inner.Name(), every: samplePeriod(inner.Name())}}
}

func (t *timedPrefetcher) Name() string { return t.inner.Name() }

func (t *timedPrefetcher) Operate(acc sim.LLCAccess) []uint64 {
	p := t.p
	p.calls++
	var out []uint64
	if p.calls%p.every != 0 {
		out = t.inner.Operate(acc)
	} else {
		p.sampling = true
		t0 := time.Now()
		out = t.inner.Operate(acc)
		p.opNS += time.Since(t0).Nanoseconds()
		p.sampling = false
		p.sampled++
	}
	p.issued += uint64(len(out))
	if len(out) > p.maxDegree {
		p.maxDegree = len(out)
	}
	return out
}

func (t *timedPrefetcher) InferenceLatencyCycles() uint64 {
	if il, ok := t.inner.(sim.InferenceLatency); ok {
		return il.InferenceLatencyCycles()
	}
	return 0
}

func (t *timedPrefetcher) Health() error {
	if hr, ok := t.inner.(sim.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

func (t *timedPrefetcher) JoinBatch() {
	if j, ok := t.inner.(interface{ JoinBatch() }); ok {
		j.JoinBatch()
	}
}

func (t *timedPrefetcher) LeaveBatch() {
	if l, ok := t.inner.(interface{ LeaveBatch() }); ok {
		l.LeaveBatch()
	}
	if t.now != nil {
		t.p.lastLeave = t.now()
	}
}

// timedDetector decorates the phase detector of an instrumented MPGraph.
type timedDetector struct {
	inner phasedet.Detector
	p     *opProbe
}

func (d *timedDetector) Name() string { return d.inner.Name() }
func (d *timedDetector) Reset()       { d.inner.Reset() }

func (d *timedDetector) Observe(x float64) bool {
	if !d.p.sampling {
		return d.inner.Observe(x)
	}
	t0 := time.Now()
	fired := d.inner.Observe(x)
	d.p.detNS += time.Since(t0).Nanoseconds()
	return fired
}

// timedSched is the timing core.ModelScheduler. With inner == nil it is the
// unbatched path: it runs the model on its own arena exactly as core does on
// its own (models.DeltaScoresWith / TopPagesWith); otherwise it times the
// calls into a batch-tier session handle, which block until the fused round
// containing them has run.
type timedSched struct {
	inner core.ModelScheduler
	ctx   *tensor.Ctx
	p     *opProbe
}

func (s *timedSched) Join() {
	if s.inner != nil {
		s.inner.Join()
	}
}

func (s *timedSched) Leave() {
	if s.inner != nil {
		s.inner.Leave()
	}
}

func (s *timedSched) DeltaScores(m models.DeltaModel, sample *models.Sample) []float64 {
	s.p.modelCalls++
	if !s.p.sampling {
		return s.deltaScores(m, sample)
	}
	t0 := time.Now()
	out := s.deltaScores(m, sample)
	s.p.modelNS += time.Since(t0).Nanoseconds()
	return out
}

func (s *timedSched) deltaScores(m models.DeltaModel, sample *models.Sample) []float64 {
	if s.inner != nil {
		return s.inner.DeltaScores(m, sample)
	}
	// The previous call's scores were decoded before core called again.
	s.ctx.Reset()
	return models.DeltaScoresWith(s.ctx, m, sample)
}

func (s *timedSched) TopPages(m models.PageModel, sample *models.Sample, k int, dst []uint64) []uint64 {
	s.p.modelCalls++
	if !s.p.sampling {
		return s.topPages(m, sample, k, dst)
	}
	t0 := time.Now()
	out := s.topPages(m, sample, k, dst)
	s.p.modelNS += time.Since(t0).Nanoseconds()
	return out
}

func (s *timedSched) topPages(m models.PageModel, sample *models.Sample, k int, dst []uint64) []uint64 {
	if s.inner != nil {
		return s.inner.TopPages(m, sample, k, dst)
	}
	s.ctx.Reset()
	return models.TopPagesWith(s.ctx, m, sample, k, dst)
}

// reqHeader carries the client's chunk-span id to the server-side span.
const reqHeader = "X-Bench-Req"

// tracedHandler records one "http.handler" span per request around the serve
// handler, as a child of the client's request span.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64) // 0 (no parent) when absent
	sp := h.tr.start("http.handler", req, req)
	h.inner.ServeHTTP(w, r)
	sp.end()
}

// stageNS is a traced pass's time split over the stage-attribution rows.
type stageNS map[string]int64

// attribute splits the spans of one pass into stage self times: a span's
// self time is its duration minus the part of it its child spans cover
// (their union — concurrent children overlap) minus its aggregates.
//
// Span names map to stages: pass → unattributed (the benchmark's own glue),
// frameworks.run → frameworks, sim.run → sim, request → http (client,
// network, net/http before the handler), http.handler → serve, replay (log
// decode, result encode) and replay.session → serve. Aggregates map to
// prefetcher (a classic or ML baseline's Operate), or for MPGraph to
// controller (Operate − detector − model), detector and model.
//
// A served prefetcher's aggregates hang on its session span, while the time
// they cover is inside http.handler spans; the session span itself is
// excluded from the tree (it overlaps the requests) and its aggregates are
// deducted from the serve stage instead.
func attribute(spans []span) stageNS {
	out := stageNS{}
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Name != "session" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	stageOf := map[string]string{
		"pass": "unattributed", "frameworks.run": "frameworks", "sim.run": "sim",
		"request": "http", "http.handler": "serve", "replay": "serve", "replay.session": "serve",
	}
	for _, s := range spans {
		busy, det, model := aggNS(s, "operate"), aggNS(s, "detector"), aggNS(s, "model")
		if model > 0 || det > 0 {
			out["controller"] += busy - det - model
			out["detector"] += det
			out["model"] += model
		} else {
			out["prefetcher"] += busy
		}
		if s.Name == "session" {
			out["serve"] -= busy
			continue
		}
		self := (s.End - s.Start) - covered(s, children[s.ID]) - busy
		out[stageOf[s.Name]] += self
	}
	return out
}

func aggNS(s span, name string) int64 {
	for _, a := range s.Aggs {
		if a.Name == name {
			return a.BusyNS
		}
	}
	return 0
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, hi int64
	for i, v := range ivs {
		if i == 0 || v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}

// shares normalises stage times to shares of their sum.
func (s stageNS) shares() map[string]float64 {
	var total int64
	for _, ns := range s {
		total += ns
	}
	out := map[string]float64{}
	for _, name := range stageNames {
		if total > 0 {
			out[name] = float64(s[name]) / float64(total)
		} else {
			out[name] = 0
		}
	}
	return out
}

package experiments

import (
	"bytes"
	"fmt"
	"io"

	"mpgraph/internal/binio"
	"mpgraph/internal/frameworks"
	"mpgraph/internal/nn"
	"mpgraph/internal/resilience"
	"mpgraph/internal/trace"
)

// Store returns the runner's checkpoint store, creating it on first use
// (nil when Options.CheckpointDir is empty — every save and load degrades to
// a no-op / cache miss through the store's nil-safety).
func (r *Runner) Store() (*resilience.Store, error) {
	if r.Opt.CheckpointDir == "" {
		return nil, nil
	}
	r.storeOnce.Do(func() {
		r.store, r.storeErr = resilience.NewStore(r.Opt.CheckpointDir, r.Opt.Injector, r.Events)
	})
	return r.store, r.storeErr
}

// loadStore resolves the store for load paths: nil (always a miss) unless
// resuming was requested.
func (r *Runner) loadStore() (*resilience.Store, error) {
	if !r.Opt.Resume {
		return nil, nil
	}
	return r.Store()
}

// artifactFingerprint identifies every option that changes a workload trace.
// A checkpoint whose fingerprint differs is stale and treated as a miss.
func (o Options) artifactFingerprint() string {
	return fmt.Sprintf("trace/v1 scale=%s graphScale=%d iters=%d seed=%d",
		o.Scale, o.graphScale(), o.TraceIterations, o.Seed)
}

// suiteFingerprint additionally covers everything that changes training.
func (o Options) suiteFingerprint() string {
	return fmt.Sprintf("suite/v1 %s maxTest=%d trainSamples=%d epochs=%d cfg=%+v",
		o.artifactFingerprint(), o.MaxTestAccesses, o.TrainSamples, o.Epochs, o.ModelConfig())
}

func traceKey(w Workload) string {
	return fmt.Sprintf("trace-%s-%s-%s", w.Framework, w.App, w.Dataset)
}

func suiteKey(w Workload) string {
	return fmt.Sprintf("suite-%s-%s-%s", w.Framework, w.App, w.Dataset)
}

// saveTraceCheckpoint persists w's generated trace and framework result.
func (r *Runner) saveTraceCheckpoint(w Workload, tr *trace.Trace, res *frameworks.Result) error {
	st, err := r.Store()
	if err != nil {
		return err
	}
	return st.Save(traceKey(w), r.Opt.artifactFingerprint(), func(wr io.Writer) error {
		return writeTracePayload(wr, tr, res)
	})
}

// loadTraceCheckpoint restores w's trace and result; ok is false on any
// miss (no store, no resume, stale fingerprint, corruption).
func (r *Runner) loadTraceCheckpoint(w Workload) (tr *trace.Trace, res *frameworks.Result, ok bool, err error) {
	st, err := r.loadStore()
	if err != nil {
		return nil, nil, false, err
	}
	ok, err = st.Load(traceKey(w), r.Opt.artifactFingerprint(), func(rd io.Reader) (err error) {
		tr, res, err = readTracePayload(rd)
		return err
	})
	return tr, res, ok, err
}

// saveSuiteCheckpoint persists the trained weights of all ten suite models.
// Structure (datasets, vocab, model shapes) is NOT stored: the skeleton is
// rebuilt deterministically and only parameters round-trip, bit-exactly.
func (r *Runner) saveSuiteCheckpoint(w Workload, s *Suite) error {
	st, err := r.Store()
	if err != nil {
		return err
	}
	return st.Save(suiteKey(w), r.Opt.suiteFingerprint(), func(wr io.Writer) error {
		return writeSuitePayload(wr, s)
	})
}

// loadSuiteCheckpoint restores trained weights into a freshly built
// skeleton; ok is false on any miss.
func (r *Runner) loadSuiteCheckpoint(w Workload, s *Suite) (bool, error) {
	st, err := r.loadStore()
	if err != nil {
		return false, err
	}
	return st.Load(suiteKey(w), r.Opt.suiteFingerprint(), func(rd io.Reader) error {
		return readSuitePayload(rd, s)
	})
}

// suiteModules lists the suite's models in the fixed serialization order.
func suiteModules(s *Suite) []nn.Module {
	return []nn.Module{
		s.LSTMDelta, s.AttnDelta, s.AMMADelta, s.PIDelta, s.PSDelta,
		s.LSTMPage, s.AttnPage, s.AMMAPage, s.PIPage, s.PSPage,
	}
}

const ckptMaxBlob = 1 << 30

// writeTracePayload writes the framework result — app and framework behind
// 8-byte lengths, the iteration count, the converged flag and the values —
// then the trace.
func writeTracePayload(w io.Writer, tr *trace.Trace, res *frameworks.Result) error {
	bw := binio.NewWriter(w)
	for _, s := range []string{string(res.App), res.Framework} {
		bw.U64(uint64(len(s)))
		bw.Bytes([]byte(s))
	}
	converged := uint64(0)
	if res.Converged {
		converged = 1
	}
	bw.U64(uint64(res.Iterations))
	bw.U64(converged)
	bw.U64(uint64(len(res.Values)))
	binio.Put(bw, res.Values, 8, binio.AppendF64)
	return trace.Write(bw, tr)
}

// readTracePayload is writeTracePayload's inverse.
func readTracePayload(rd io.Reader) (*trace.Trace, *frameworks.Result, error) {
	br := binio.NewReader(rd)
	res := &frameworks.Result{
		App: frameworks.App(br.Bytes(br.Count(1 << 16))), Framework: string(br.Bytes(br.Count(1 << 16))),
		Iterations: int(br.U64()), Converged: br.U64() == 1,
	}
	if res.Values = binio.Get(br, br.Count(ckptMaxBlob/8), 8, binio.F64); br.Err() != nil {
		return nil, nil, fmt.Errorf("experiments: result: %w", br.Err())
	}
	tr, err := trace.Read(br)
	return tr, res, err
}

// writeSuitePayload writes each module as a length-prefixed nn.Save blob.
func writeSuitePayload(w io.Writer, s *Suite) error {
	bw := binio.NewWriter(w)
	for _, m := range suiteModules(s) {
		var blob bytes.Buffer
		if err := nn.Save(&blob, m); err != nil {
			return err
		}
		bw.U64(uint64(blob.Len()))
		bw.Bytes(blob.Bytes())
	}
	return bw.Flush()
}

// readSuitePayload loads writeSuitePayload's blobs into s's models.
func readSuitePayload(rd io.Reader, s *Suite) error {
	br := binio.NewReader(rd)
	for _, m := range suiteModules(s) {
		blob := br.Bytes(br.Count(ckptMaxBlob))
		if err := br.Err(); err != nil {
			return fmt.Errorf("experiments: module blob: %w", err)
		}
		if err := nn.Load(bytes.NewReader(blob), m); err != nil {
			return err
		}
	}
	return nil
}

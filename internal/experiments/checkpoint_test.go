package experiments

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"runtime"
	"testing"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/models"
	"mpgraph/internal/nn"
	"mpgraph/internal/resilience"
	"mpgraph/internal/trace"
)

// forgedPayloads are checkpoint payloads of under 100 bytes whose counts
// claim far more than follows: a result of 2^27 values, and a model record
// of 2^30 parameters behind a valid MPNN magic. Both sit inside the
// decoders' limits, so only reading as the bytes arrive (and comparing the
// parameter count with the model's own) keeps them from allocating a GiB.
func forgedPayloads(mod nn.Module) (result, record []byte) {
	le := binary.LittleEndian
	for _, s := range []string{"cc", "gpop"} {
		result = append(le.AppendUint64(result, uint64(len(s))), s...)
	}
	for _, v := range []uint64{3, 1, 1 << 27, 0x3ff0000000000000} { // iterations, converged, count, one value
		result = le.AppendUint64(result, v)
	}
	var valid bytes.Buffer
	if err := nn.Save(&valid, mod); err != nil {
		panic(err)
	}
	record = append(le.AppendUint64(valid.Bytes()[:8:8], 1<<30), make([]byte, 40)...)
	return result, record
}

// TestResumeForgedCheckpointCounts: a CRC-valid checkpoint is not a trusted
// one (CRC-64 is not a MAC), so a forged count in its payload must fail the
// resume without allocating what the count claims.
func TestResumeForgedCheckpointCounts(t *testing.T) {
	o := faultOptions()
	o.CheckpointDir, o.Resume = t.TempDir(), true
	r := NewRunner(o)
	st, err := r.Store()
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{Framework: "gpop", App: frameworks.CC, Dataset: "rmat"}
	cfg := models.SmallConfig()
	mod := artifactModel(cfg, artifactSuite(cfg))
	result, record := forgedPayloads(mod)
	for _, c := range []struct {
		name, key, meta string
		payload         []byte
		load            func() error
	}{
		{"result-count", traceKey(wl), o.artifactFingerprint(), result,
			func() error { _, _, _, err := r.loadTraceCheckpoint(wl); return err }},
		{"param-count", modelKey(wl, PSDelta), o.suiteFingerprint(), record,
			func() error { _, err := r.loadModel(wl, PSDelta, mod); return err }},
	} {
		if err := st.Save(c.key, c.meta, func(w io.Writer) error { _, err := w.Write(c.payload); return err }); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.load()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: forged checkpoint resumed without an error", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
			t.Errorf("%s: resume allocated %d MiB for a payload of %d bytes", c.name, grew>>20, len(c.payload))
		}
	}
}

// fuzzMeta is the fingerprint FuzzCheckpointLoad's store expects; its seeds
// carry it, so mutations reach the payload decoders.
const fuzzMeta = "fuzz"

// fuzzConfig is the smallest valid model configuration, so a valid model
// seed stays a few kilobytes.
func fuzzConfig() models.Config {
	return models.Config{
		HistoryT: 1, LookForwardF: 1, AttnDim: 1, FusionDim: 1, TransLayers: 0, Heads: 1,
		NumSegments: 1, SegmentBits: 1, DeltaRange: 1, PageVocab: 2, PCVocab: 2, LSTMHidden: 1, Seed: 1,
	}
}

// FuzzCheckpointLoad: a checkpoint file is outside bytes once it is on
// disk. Each input is loaded as a whole checkpoint file, and as the payload
// of a valid envelope so mutations reach the decoders past the CRC; loaded as
// a trace or as a model record, it is a hit or a miss or an error — never a
// panic, never a trace that fails Validate — and allocates at most 2 MiB plus
// eight times its length, whatever its counts claim. The seeds under
// testdata/fuzz are valid trace and model checkpoints (as files and as
// payloads), a truncated header, a bad magic, a future version, a size
// mismatch, a bad CRC, and payloads with a forged result count and a forged
// parameter count.
func FuzzCheckpointLoad(f *testing.F) {
	st, err := resilience.NewStore(f.TempDir(), nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	cfg := fuzzConfig()
	mod := artifactModel(cfg, artifactSuite(cfg))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(st.Path("file"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := st.Save("payload", fuzzMeta, func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, key := range []string{"file", "payload"} {
			var tr *trace.Trace
			okTrace, errTrace := st.Load(key, fuzzMeta, func(rd io.Reader) (err error) {
				tr, _, err = readTracePayload(rd)
				return err
			})
			okModel, errModel := st.Load(key, fuzzMeta, func(rd io.Reader) error { return nn.Load(rd, mod) })
			if (okTrace && errTrace != nil) || (okModel && errModel != nil) {
				t.Fatalf("%s: a load both hit and failed: %v, %v", key, errTrace, errModel)
			}
			if okTrace {
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: a trace checkpoint loaded a trace that fails Validate: %v", key, err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+2<<20); grew > bound {
			t.Fatalf("loading %d bytes allocated %d, over %d", len(data), grew, bound)
		}
	})
}

package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"testing"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/models"
	"mpgraph/internal/nn"
	"mpgraph/internal/trace"
)

// TestArtifactFormatsByteIdentical pins every binary artifact format to the
// bytes it has always written: a trace (MPTR), one module's parameters at
// both precisions (MPNN, MPNH), a two-phase suite snapshot at both precisions
// (MPSF, MPSH) and both checkpoint kinds inside their envelope (MPCK). The
// inputs are seeded and untrained, so no kernel reaches the bytes; the hashes
// were recorded before the formats shared one codec, and a change to any of
// them is a format change that old files would no longer load under.
func TestArtifactFormatsByteIdentical(t *testing.T) {
	want := []struct{ name, sum string }{
		{"trace", "db82f844208d33f575aa300db8373846dcb6545704b13cff9db4ba0afb8553a4"},
		{"module-f64", "a13be9d0466e4144d6bae3a10f942b73adbcd632b4a7c352b3a47c74d7bf4710"},
		{"module-f16", "fd684dca1109da4905efbb91f439ab8299914c03c5b6078921b67ac53d046e4e"},
		{"suite-f64", "28a4ea918b6b2f2b772430ca804445689c7eb90aa3510966147c29a5c12f610c"},
		{"suite-f16", "fea8bfc10fba1d9347a1af2ee097e92e7c3ec288ca0666a343a85c492024b782"},
		{"ckpt-trace", "4c5972ee98355bf30c3bd1a0a681c466c8345050179790cbb528e0f9e608d0fd"},
		{"ckpt-suite", "434bb986bdd19673253ce150ce2bf2f60b190a7371cdae29e76406c202ae6797"},
	}
	tr, res := artifactTrace()
	cfg := models.SmallConfig()
	pm := artifactSuite(cfg)
	mod := pm.Deltas[1]

	got := map[string]string{}
	hash := func(name string, write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[name] = hex.EncodeToString(sum[:])
	}
	hash("trace", func(w io.Writer) error { return trace.Write(w, tr) })
	hash("module-f64", func(w io.Writer) error { return nn.Save(w, mod) })
	hash("module-f16", func(w io.Writer) error { return nn.SaveF16(w, mod) })
	hash("suite-f64", pm.Save)
	hash("suite-f16", pm.SaveF16)

	o := faultOptions()
	o.CheckpointDir = t.TempDir()
	r := NewRunner(o)
	st, err := r.Store()
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{Framework: "gpop", App: frameworks.PR, Dataset: "rmat"}
	if err := r.saveTraceCheckpoint(wl, tr, res); err != nil {
		t.Fatal(err)
	}
	if err := r.saveSuiteCheckpoint(wl, artifactCheckpointSuite(cfg, pm)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, key string }{{"ckpt-trace", traceKey(wl)}, {"ckpt-suite", suiteKey(wl)}} {
		b, err := os.ReadFile(st.Path(c.key))
		if err != nil {
			t.Fatal(err)
		}
		hash(c.name, func(w io.Writer) error { _, err := w.Write(b); return err })
	}

	for _, w := range want {
		if got[w.name] != w.sum {
			t.Errorf("%s: sha256 %s, pinned %s", w.name, got[w.name], w.sum)
		}
	}
}

// artifactTrace is a small seeded two-phase trace and the framework result
// a trace checkpoint stores beside it.
func artifactTrace() (*trace.Trace, *frameworks.Result) {
	rng := rand.New(rand.NewSource(32))
	tr := &trace.Trace{App: "pr", Framework: "gpop", NumPhases: 2, IterationStarts: []int{0, 60, 130}}
	for i := 0; i < 200; i++ {
		tr.Accesses = append(tr.Accesses, trace.Access{
			Addr: rng.Uint64() >> 16, PC: 0x400000 + uint64(rng.Intn(64))*4,
			Core: uint8(rng.Intn(4)), Phase: uint8(rng.Intn(2)), Gap: uint8(rng.Intn(8)), Write: rng.Intn(3) == 0,
		})
	}
	res := &frameworks.Result{App: frameworks.PR, Framework: "gpop", Iterations: 3, Converged: true}
	for i := 0; i < 50; i++ {
		res.Values = append(res.Values, rng.NormFloat64())
	}
	return tr, res
}

// artifactSuite is an untrained two-phase suite at cfg over seeded vocabs.
func artifactSuite(cfg models.Config) *models.PrefetcherModels {
	rng := rand.New(rand.NewSource(33))
	var pages, pcs []uint64
	for i := 0; i < 300; i++ {
		pages = append(pages, uint64(rng.Intn(200)))
		pcs = append(pcs, 0x400000+uint64(rng.Intn(40))*4)
	}
	pm := &models.PrefetcherModels{Cfg: cfg, Pages: models.BuildVocab(pages, cfg.PageVocab), PCs: models.BuildVocab(pcs, cfg.PCVocab)}
	for p := int64(0); p < 2; p++ {
		pm.Deltas = append(pm.Deltas, models.NewAMMADelta(cfg, pm.PCs, 0, 40+p))
		pm.PageMs = append(pm.PageMs, models.NewAMMAPage(cfg, pm.Pages, pm.PCs, 0, 50+p))
	}
	return pm
}

// artifactCheckpointSuite is the ten-model suite a suite checkpoint stores,
// every model at its constructor seed.
func artifactCheckpointSuite(cfg models.Config, pm *models.PrefetcherModels) *Suite {
	return &Suite{
		Cfg: cfg, NumPhases: 2,
		LSTMDelta: models.NewLSTMDelta(cfg, 61),
		AttnDelta: models.NewAttnDelta(cfg, 62),
		AMMADelta: pm.Deltas[0],
		PIDelta:   models.NewAMMADelta(cfg, pm.PCs, 2, 64),
		PSDelta:   models.NewPhaseSpecificDelta(cfg, pm.PCs, 2, 65),
		LSTMPage:  models.NewLSTMPage(cfg, pm.Pages, pm.PCs, 66),
		AttnPage:  models.NewAttnPage(cfg, pm.Pages, pm.PCs, 67),
		AMMAPage:  pm.PageMs[0],
		PIPage:    models.NewAMMAPage(cfg, pm.Pages, pm.PCs, 2, 69),
		PSPage:    models.NewPhaseSpecificPage(cfg, pm.Pages, pm.PCs, 2, 70),
	}
}

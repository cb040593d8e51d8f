//go:build amd64 && !amd64.v3

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"mpgraph/internal/models"
	"mpgraph/internal/tensor"
)

// pinnedSweepDigests are the SHA-256s of one sweep cell's metrics — every
// prefetcher of Runner.Prefetchers on the first tiny workload, float64
// models — on the AVX-512F kernels and on the portable fallback, recorded
// before the row kernels took over the position adds, concats,
// mean-pooling, score hand-off and top-k scan. Those passes keep their
// scalar operation order, so a changed digest is a kernel that moved a bit.
var pinnedSweepDigests = [2]string{
	"45dd0d2002080a39a13f3cd548f606e4f295b26896a1c8fc6a7d32ffb0e4af45", // AVX-512F
	"45dd0d2002080a39a13f3cd548f606e4f295b26896a1c8fc6a7d32ffb0e4af45", // portable
}

// pinnedSuiteScoreDigests are the SHA-256s of suiteScoreBits, recorded with
// pinnedSweepDigests: simulated metrics only show a rounding change that
// flips a prefetch, the trained models' scores show every bit.
var pinnedSuiteScoreDigests = [2]string{
	"a88b35a9ebc0c740305f580da958849d63faa4353fb7867358b95a1729b5067b", // AVX-512F
	"a45f45ae6ed441b585c13ccae1a578bd06da9476aa4737911d7dd35ef697c1ae", // portable
}

// suiteScoreBits returns the float64 bits of every delta model's scores and
// every page model's top-8 pages, on the first 40 test samples of s, one
// sample at a time.
func suiteScoreBits(s *Suite) []byte {
	return scoreBits(tensor.NewCtx(), s.Test.Samples,
		[]models.DeltaModel{s.LSTMDelta, s.AttnDelta, s.AMMADelta, s.PIDelta, s.PSDelta},
		[]models.PageModel{s.LSTMPage, s.AttnPage, s.AMMAPage, s.PIPage, s.PSPage})
}

// pinnedAutogradScoreDigest is the SHA-256 of autogradScoreBits: the
// nil-ctx (autograd) forward that trains the models and scores Tables 6 and
// 7. It runs no inference kernel, so one digest holds on both kernel
// families. Recorded while each model still had a hand-written autograd
// forward of its own, before that forward became the model's stacked
// forward on a nil ctx.
const pinnedAutogradScoreDigest = "edd96ebf5548b086c8978f71cb9a8a56ebd9b05f3b25cf63d6d10ba88c6de689"

// autogradScoreBits is suiteScoreBits on a nil ctx, with one Fig. 13
// BinaryPage student (knowledge-distilled, width /4, phase 0) after the
// suite's page models.
func autogradScoreBits(s *Suite, student models.PageModel) []byte {
	return scoreBits(nil, s.Test.Samples,
		[]models.DeltaModel{s.LSTMDelta, s.AttnDelta, s.AMMADelta, s.PIDelta, s.PSDelta},
		[]models.PageModel{s.LSTMPage, s.AttnPage, s.AMMAPage, s.PIPage, s.PSPage, student})
}

// scoreBits returns the bits of the delta models' scores and the page
// models' top-8 pages on c, on the first 40 of samples, one at a time.
func scoreBits(c *tensor.Ctx, samples []*models.Sample, deltas []models.DeltaModel, pages []models.PageModel) []byte {
	var out []byte
	samples = samples[:min(40, len(samples))]
	for _, m := range deltas {
		for _, smp := range samples {
			for _, v := range m.DeltaScoresCtx(c, smp) {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
			c.Reset()
		}
	}
	for _, m := range pages {
		for _, smp := range samples {
			for _, pg := range m.TopPagesAppendCtx(c, smp, 8, nil) {
				out = binary.LittleEndian.AppendUint64(out, pg)
			}
			out = append(out, 0xff)
			c.Reset()
		}
	}
	return out
}

// TestPredictionBitsPinned holds one sweep cell's []sim.Metrics and the
// trained suite's scores to the digests above on both kernel families (serve's test of the same name pins
// the replayed prediction logs and model scores). The digests belong to the
// amd64 build below GOAMD64=v3, where the compiler never fuses a multiply
// and an add; a v3 build may fuse the portable loops and trains other
// weights, so the file is not built there. Hosts without AVX-512F check the
// portable digest only; the race build runs smaller options and skips.
func TestPredictionBitsPinned(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race build's tiny options are not the pinned cell")
	}
	wl := shared.Opt.Workloads()[0]
	suite, err := shared.Suite(wl, AllModels...)
	if err != nil {
		t.Fatal(err)
	}
	student, err := buildCompressed(shared, wl, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, portable := range []bool{false, true} {
		if !portable && !tensor.VectorKernels() {
			continue
		}
		r := NewRunner(shared.Opt)
		r.Opt.Batch, r.Opt.Workers = 0, 1
		r.suites, r.data, r.graphs = shared.suites, shared.data, shared.graphs
		var restore func()
		if portable {
			restore = tensor.ForcePortableKernels()
		}
		pfs, err := r.Prefetchers(wl)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, pf := range pfs {
			m, _, err := r.Simulate(wl, pf)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%+v\n", m)
		}
		if restore != nil {
			restore()
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSweepDigests[i] {
			t.Errorf("portable=%v: sweep cell metrics sha256 %s, pinned %s", portable, got, pinnedSweepDigests[i])
		}
		if portable {
			restore = tensor.ForcePortableKernels()
		}
		sum := sha256.Sum256(suiteScoreBits(suite))
		nilSum := sha256.Sum256(autogradScoreBits(suite, student.pages[0]))
		if restore != nil {
			restore()
		}
		if got := hex.EncodeToString(sum[:]); got != pinnedSuiteScoreDigests[i] {
			t.Errorf("portable=%v: suite score sha256 %s, pinned %s", portable, got, pinnedSuiteScoreDigests[i])
		}
		if got := hex.EncodeToString(nilSum[:]); got != pinnedAutogradScoreDigest {
			t.Errorf("portable=%v: nil-ctx score sha256 %s, pinned %s", portable, got, pinnedAutogradScoreDigest)
		}
	}
}

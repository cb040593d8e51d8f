//go:build amd64 && !amd64.v3

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"mpgraph/internal/models"
	"mpgraph/internal/tensor"
)

// pinnedReplayDigests are the SHA-256s of replayTrace(6, 80)'s prediction
// log on each precision tier, on the AVX-512F kernels and on the portable
// fallback (tensor.ForcePortableKernels), recorded before the row kernels
// took over the position adds, concats, mean-pooling, score hand-off and
// top-k scan. Those passes only move data or keep their scalar operation
// order, so a digest that changes is a kernel that moved a bit, not a pin
// to refresh.
var pinnedReplayDigests = map[string][2]string{
	// tier: {AVX-512F, portable}
	"f64":  {"19483dd12c61668a928bdc76cc14678c7efd890285f5f2a2e4c8807af942a497", "19483dd12c61668a928bdc76cc14678c7efd890285f5f2a2e4c8807af942a497"},
	"f32":  {"19483dd12c61668a928bdc76cc14678c7efd890285f5f2a2e4c8807af942a497", "19483dd12c61668a928bdc76cc14678c7efd890285f5f2a2e4c8807af942a497"},
	"int8": {"5d697786909ab78bf95080c4e8a4be6845107830a32388055808fc35d7f4a4a8", "5d697786909ab78bf95080c4e8a4be6845107830a32388055808fc35d7f4a4a8"},
}

// pinnedScoreDigests are the SHA-256s of modelScoreBits on each tier and
// kernel family, recorded with pinnedReplayDigests. A prediction log only
// shows a rounding change that reorders a ranking; the scores show every bit.
var pinnedScoreDigests = map[string][2]string{
	"f64":  {"3cac89331197c0f509d07d4f1ac396985e430e4d83f8e72da98f472307a78fae", "1853f16cf0d875ac580cff07c58e86e3f65f76d37a4de3aa71a674f83e4ab4e5"},
	"f32":  {"f266bb0acdd0737205892b5555a56aa1ba6691889ce4d99c79d25376fee45958", "24d39b69a722743cd86260b05619b7c144fd0a57d87557b624ade237a7a3b048"},
	"int8": {"1a5f068aed7bfd6adac6be1a81d912623102b191abe367c6f16d8671e26cafd4", "b890d3eb0d3e51d16c6eb5dfff86b72d95536471903bc38806c54b62a424586f"},
}

// modelScoreBits scores windows of session 0..5's streams with every phase
// model of the pair, in one stacked batch of eight and one window at a time
// (which must agree), and returns the float64 bits of every delta score
// followed by each window's top-32 known pages.
func modelScoreBits(t *testing.T, convert tierConvert) []byte {
	t.Helper()
	cfg, psd, psp := tierModels(t, convert)
	var ss []*models.Sample
	for i := 0; i < 6; i++ {
		evs := sessionEvents(3000, i, 40)
		for j := 0; j+cfg.HistoryT <= len(evs); j += 4 {
			s := &models.Sample{Phase: j % 2}
			for _, ev := range evs[j : j+cfg.HistoryT] {
				s.Blocks = append(s.Blocks, ev.Addr>>6)
				s.PCs = append(s.PCs, ev.PC)
			}
			ss = append(ss, s)
		}
	}
	c := tensor.NewCtx()
	var out []byte
	for p := range psd.Models {
		for lo := 0; lo < len(ss); lo += 8 {
			batch := ss[lo:min(lo+8, len(ss))]
			stacked := models.DeltaScoresBatchWith(c, psd.Models[p], batch)
			for i, s := range batch {
				one := psd.Models[p].DeltaScoresCtx(c, s)
				row := stacked.Data[i*len(one) : (i+1)*len(one)]
				for j, v := range one {
					if math.Float64bits(v) != math.Float64bits(row[j]) {
						t.Fatalf("phase %d sample %d: batched score %d differs from sequential", p, lo+i, j)
					}
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
				}
			}
			pages := make([][]uint64, len(batch))
			models.TopPagesBatchWith(c, psp.Models[p], batch, 32, pages)
			for i, s := range batch {
				one := psp.Models[p].TopPagesAppendCtx(c, s, 32, nil)
				if !slices.Equal(one, pages[i]) {
					t.Fatalf("phase %d sample %d: batched pages %v, sequential %v", p, lo+i, pages[i], one)
				}
				for _, pg := range one {
					out = binary.LittleEndian.AppendUint64(out, pg)
				}
				out = append(out, 0xff)
			}
			c.Reset()
		}
	}
	return out
}

// TestPredictionBitsPinned holds the replayed prediction log of every
// precision tier, unbatched and through an eight-wide inference batch, to
// the digests recorded above, on both kernel families. The byte-identity
// tests compare a run with itself across batch sizes and workers; this one
// compares against the bits of an earlier tree. The digests belong to the
// amd64 build below GOAMD64=v3, where the compiler never fuses a multiply
// and an add; a v3 build may fuse the portable loops and the training
// kernels, so the file is not built there. Hosts without AVX-512F check the
// portable digests only.
func TestPredictionBitsPinned(t *testing.T) {
	trace := replayTrace(t, 6, 80)
	tiers := []struct {
		name    string
		convert tierConvert
	}{
		{"f64", nil},
		{"f32", models.ConvertSuiteF32},
		{"int8", func(d models.DeltaModel, p models.PageModel) (models.DeltaModel, models.PageModel, error) {
			return models.QuantizeSuite(d, p, nil)
		}},
	}
	for _, portable := range []bool{false, true} {
		if !portable && !tensor.VectorKernels() {
			continue
		}
		for _, tier := range tiers {
			var restore func()
			if portable {
				restore = tensor.ForcePortableKernels()
			}
			var logs [2][]byte
			for i, batch := range []int{0, 8} {
				srv := mustServer(t, tierConfig(t, batch, tier.convert))
				var out bytes.Buffer
				if err := Replay(context.Background(), srv, bytes.NewReader(trace), &out, 1); err != nil {
					t.Fatalf("%s batch=%d: Replay = %v", tier.name, batch, err)
				}
				ctx, cancel := contextWithTestTimeout()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatalf("%s: Shutdown = %v", tier.name, err)
				}
				cancel()
				logs[i] = out.Bytes()
			}
			if restore != nil {
				restore()
			}
			if !bytes.Equal(logs[0], logs[1]) {
				t.Fatalf("%s portable=%v: batched log differs from unbatched", tier.name, portable)
			}
			sum := sha256.Sum256(logs[0])
			got := hex.EncodeToString(sum[:])
			idx := 0
			if portable {
				idx = 1
			}
			if want := pinnedReplayDigests[tier.name][idx]; got != want {
				t.Errorf("%s portable=%v: replay log sha256 %s, pinned %s", tier.name, portable, got, want)
			}
			if portable {
				restore = tensor.ForcePortableKernels()
			}
			sum = sha256.Sum256(modelScoreBits(t, tier.convert))
			if restore != nil {
				restore()
			}
			got = hex.EncodeToString(sum[:])
			if want := pinnedScoreDigests[tier.name][idx]; got != want {
				t.Errorf("%s portable=%v: model score sha256 %s, pinned %s", tier.name, portable, got, want)
			}
		}
	}
}

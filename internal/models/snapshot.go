package models

import (
	"encoding/binary"
	"fmt"
	"io"

	"mpgraph/internal/binio"
	"mpgraph/internal/nn"
)

// PrefetcherModels is the deployable artifact of offline training (Fig. 6's
// "deploy" arrow): the configuration, the tokenizers, and the per-phase
// spatial and temporal predictors that the MPGraph controller switches
// between.
type PrefetcherModels struct {
	Cfg    Config
	Pages  *Vocab
	PCs    *Vocab
	Deltas []*AMMADelta
	PageMs []*AMMAPage
}

// NumPhases reports the phase count the models were trained for.
func (pm *PrefetcherModels) NumPhases() int { return len(pm.Deltas) }

// NewPrefetcherModels packs a trained phase-specific pair into the artifact:
// ds's configuration and tokenizers, and each phase's AMMA delta and page
// models.
func NewPrefetcherModels(ds *Dataset, delta *PhaseSpecificDelta, page *PhaseSpecificPage) (*PrefetcherModels, error) {
	if len(delta.Models) == 0 || len(delta.Models) != len(page.Models) {
		return nil, fmt.Errorf("models: need matching per-phase delta/page models, got %d/%d", len(delta.Models), len(page.Models))
	}
	pm := &PrefetcherModels{Cfg: ds.Cfg, Pages: ds.Pages, PCs: ds.PCs}
	for p := range delta.Models {
		d, ok1 := delta.Models[p].(*AMMADelta)
		pg, ok2 := page.Models[p].(*AMMAPage)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("models: phase %d is not AMMA (%T/%T)", p, delta.Models[p], page.Models[p])
		}
		pm.Deltas, pm.PageMs = append(pm.Deltas, d), append(pm.PageMs, pg)
	}
	return pm, nil
}

// DeltaModels returns the per-phase spatial predictors as interfaces.
func (pm *PrefetcherModels) DeltaModels() []DeltaModel {
	out := make([]DeltaModel, len(pm.Deltas))
	for i, m := range pm.Deltas {
		out[i] = m
	}
	return out
}

// PageModels returns the per-phase temporal predictors as interfaces.
func (pm *PrefetcherModels) PageModels() []PageModel {
	out := make([]PageModel, len(pm.PageMs))
	for i, m := range pm.PageMs {
		out[i] = m
	}
	return out
}

// snapCodec is one row of the snapshot format table: a magic per parameter
// precision and the nn block codec its parameters use. Header and
// vocabularies stay exact at either precision; they are a sliver of the
// payload.
type snapCodec struct {
	magic uint64
	save  func(io.Writer, nn.Module) error
	load  func(io.Reader, nn.Module) error
}

var (
	snapF64 = snapCodec{0x4d505346, nn.Save, nn.Load}       // "MPSF"
	snapF16 = snapCodec{0x4d505348, nn.SaveF16, nn.LoadF16} // "MPSH"
)

// Save serialises the artifact.
func (pm *PrefetcherModels) Save(w io.Writer) error { return pm.save(w, snapF64) }

// SaveF16 serialises the artifact with binary16 parameters (DESIGN.md §8):
// roughly half the size, and the f16 cut happens exactly once, here.
func (pm *PrefetcherModels) SaveF16(w io.Writer) error { return pm.save(w, snapF16) }

func (pm *PrefetcherModels) save(w io.Writer, c snapCodec) error {
	bw := binio.NewWriter(w)
	cfg := pm.Cfg
	for _, h := range []uint64{
		c.magic, uint64(len(pm.Deltas)),
		uint64(cfg.HistoryT), uint64(cfg.LookForwardF), uint64(cfg.AttnDim),
		uint64(cfg.FusionDim), uint64(cfg.TransLayers), uint64(cfg.Heads),
		uint64(cfg.NumSegments), uint64(cfg.SegmentBits), uint64(cfg.DeltaRange),
		uint64(cfg.PageVocab), uint64(cfg.PCVocab), uint64(cfg.LSTMHidden),
		uint64(cfg.Seed),
	} {
		bw.U64(h)
	}
	for _, v := range []*Vocab{pm.Pages, pm.PCs} {
		bw.U64(uint64(v.cap))
		bw.U64(uint64(len(v.values)))
		binio.Put(bw, v.values, 8, binary.LittleEndian.AppendUint64)
	}
	for i := range pm.Deltas {
		if err := c.save(bw, pm.Deltas[i]); err != nil {
			return err
		}
		if err := c.save(bw, pm.PageMs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadPrefetcherModels reconstructs an artifact Save or SaveF16 wrote,
// dispatching on the magic.
func LoadPrefetcherModels(r io.Reader) (*PrefetcherModels, error) {
	br := binio.NewReader(r)
	var hdr [15]uint64
	for i := range hdr {
		hdr[i] = br.U64()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("models: snapshot header: %w", err)
	}
	var c snapCodec
	switch hdr[0] {
	case snapF64.magic:
		c = snapF64
	case snapF16.magic:
		c = snapF16
	default:
		return nil, fmt.Errorf("models: bad snapshot magic %#x", hdr[0])
	}
	phases := int(hdr[1])
	if phases < 1 || phases > 64 {
		return nil, fmt.Errorf("models: implausible phase count %d", phases)
	}
	cfg := Config{
		HistoryT: int(hdr[2]), LookForwardF: int(hdr[3]), AttnDim: int(hdr[4]),
		FusionDim: int(hdr[5]), TransLayers: int(hdr[6]), Heads: int(hdr[7]),
		NumSegments: int(hdr[8]), SegmentBits: int(hdr[9]), DeltaRange: int(hdr[10]),
		PageVocab: int(hdr[11]), PCVocab: int(hdr[12]), LSTMHidden: int(hdr[13]),
		Seed: int64(hdr[14]),
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkSnapshotSize(cfg); err != nil {
		return nil, err
	}
	pm := &PrefetcherModels{Cfg: cfg, Pages: loadVocab(br), PCs: loadVocab(br)}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("models: vocab: %w", err)
	}
	for p := 0; p < phases; p++ {
		delta := NewAMMADelta(cfg, pm.PCs, 0, cfg.Seed)
		if err := c.load(br, delta); err != nil {
			return nil, fmt.Errorf("models: phase %d delta: %w", p, err)
		}
		page := NewAMMAPage(cfg, pm.Pages, pm.PCs, 0, cfg.Seed)
		if err := c.load(br, page); err != nil {
			return nil, fmt.Errorf("models: phase %d page: %w", p, err)
		}
		pm.Deltas = append(pm.Deltas, delta)
		pm.PageMs = append(pm.PageMs, page)
	}
	return pm, nil
}

// Snapshot header limits. A header is outside bytes (mpgraph-sim loads
// whatever file it is given), so before NewAMMA* allocates, every dimension
// it names and the parameters they imply are bounded: far above any
// configuration this repository trains (PaperConfig: ≈ 1.1 M parameters a
// phase), low enough that a forged header costs at most one phase of
// allocation before the missing parameter bytes stop the load.
const (
	maxSnapshotDim        = 1 << 10 // HistoryT, AttnDim, FusionDim, LSTMHidden
	maxSnapshotLayers     = 16      // TransLayers
	maxSnapshotVocab      = 1 << 16 // PageVocab, PCVocab, a loaded vocabulary
	maxSnapshotLookahead  = 1 << 16 // LookForwardF
	maxSnapshotPhaseParam = 1 << 22 // one phase's delta + page model (32 MB)
)

// checkSnapshotSize bounds a validated header's dimensions and the parameter
// count of one phase's two models.
func checkSnapshotSize(cfg Config) error {
	for _, d := range []struct {
		name     string
		val, max int
	}{
		{"HistoryT", cfg.HistoryT, maxSnapshotDim},
		{"AttnDim", cfg.AttnDim, maxSnapshotDim},
		{"FusionDim", cfg.FusionDim, maxSnapshotDim},
		{"LSTMHidden", cfg.LSTMHidden, maxSnapshotDim},
		{"TransLayers", cfg.TransLayers, maxSnapshotLayers},
		{"NumSegments", cfg.NumSegments, 64},
		{"SegmentBits", cfg.SegmentBits, 64},
		{"PageVocab", cfg.PageVocab, maxSnapshotVocab},
		{"PCVocab", cfg.PCVocab, maxSnapshotVocab},
		{"LookForwardF", cfg.LookForwardF, maxSnapshotLookahead},
	} {
		if d.val > d.max {
			return fmt.Errorf("models: snapshot %s %d over the loader's limit %d", d.name, d.val, d.max)
		}
	}
	if n := snapshotPhaseParams(cfg); n > maxSnapshotPhaseParam {
		return fmt.Errorf("models: snapshot header implies %d parameters a phase, over the loader's limit %d", n, maxSnapshotPhaseParam)
	}
	return nil
}

// snapshotPhaseParams is the parameter count of one phase's AMMADelta and
// AMMAPage at cfg (dimensions already bounded, so int64 cannot overflow).
func snapshotPhaseParams(cfg Config) int64 {
	t, a, f := int64(cfg.HistoryT), int64(cfg.AttnDim), int64(cfg.FusionDim)
	lin := func(in, out int64) int64 { return in*out + out }
	attn := func(in, dim int64) int64 { return 3 * lin(in, dim) }
	token := func(vocab int64) int64 { return vocab*a + t*a + attn(a, a) }
	trans := 4*f*f + 4*f + lin(f, 2*f) + lin(2*f, f) + 4*f // MHSA, FFN, two norms
	core := attn(a, f) + int64(cfg.TransLayers)*trans
	delta := lin(int64(cfg.NumSegments), a) + t*a + attn(a, a) + token(int64(cfg.PCVocab)) + core +
		lin(f, int64(cfg.DeltaClasses()))
	page := token(int64(cfg.PageVocab)) + token(int64(cfg.PCVocab)) + core + lin(f, int64(cfg.PageVocab))
	return delta + page
}

// loadVocab reads a vocabulary's capacity, then its values, token 0 first
// (nil once the stream has failed).
func loadVocab(br *binio.Reader) *Vocab {
	capacity, n := br.U64(), br.U64()
	if br.Err() == nil && (n == 0 || n > capacity || capacity > maxSnapshotVocab) {
		br.Fail(fmt.Errorf("implausible vocab header cap=%d n=%d", capacity, n))
	}
	v := &Vocab{cap: int(capacity), tokens: make(map[uint64]int), values: binio.Get(br, n, 8, binary.LittleEndian.Uint64)}
	if br.Err() != nil {
		return nil
	}
	for tok := 1; tok < len(v.values); tok++ {
		v.tokens[v.values[tok]] = tok
	}
	return v
}

// Package models implements the paper's memory-access prediction models:
// the AMMA backbone (attention with multi-modality attention fusion), the
// spatial delta predictor and temporal page predictor built on it, the
// phase-informed (AMMA-PI) and phase-specific (AMMA-PS) variants, and the
// LSTM and vanilla-attention baselines of Tables 6-7 — plus the dataset
// extraction from LLC traces, the training/evaluation harness, and the
// Section 6 compression pipeline (binary page encoding, knowledge
// distillation, quantization) with the Table 8 complexity accounting.
package models

import "fmt"

// Config shapes every model in the package. The defaults mirror Table 5.
type Config struct {
	// HistoryT is the input window length (Table 5: 9).
	HistoryT int
	// LookForwardF is the label-collection window (Table 5: 256).
	LookForwardF int
	// AttnDim is the per-modality self-attention dimension (Table 5: 64).
	AttnDim int
	// FusionDim is the MMAF output dimension (Table 5: 128).
	FusionDim int
	// TransLayers is the Transformer layer count L (Table 5: 1).
	TransLayers int
	// Heads is the Transformer head count (Table 5: 4).
	Heads int
	// NumSegments and SegmentBits define the TransFetch-style address
	// segmentation: the block address is split into NumSegments fields of
	// SegmentBits bits each.
	NumSegments int
	SegmentBits int
	// DeltaRange bounds spatial predictions: deltas in
	// [-DeltaRange, +DeltaRange]\{0} blocks (a page is 64 blocks).
	DeltaRange int
	// PageVocab is the page-token vocabulary capacity (token 0 = OOV).
	PageVocab int
	// PCVocab is the PC-token vocabulary capacity (token 0 = OOV).
	PCVocab int
	// LSTMHidden is the baseline LSTM hidden size (Section 5.3.1: 256).
	LSTMHidden int
	// Seed drives parameter initialisation.
	Seed int64
}

// PaperConfig returns the Table 5 configuration.
func PaperConfig() Config {
	return Config{
		HistoryT:     9,
		LookForwardF: 256,
		AttnDim:      64,
		FusionDim:    128,
		TransLayers:  1,
		Heads:        4,
		NumSegments:  8,
		SegmentBits:  4,
		DeltaRange:   63,
		PageVocab:    4096,
		PCVocab:      256,
		LSTMHidden:   256,
		Seed:         1,
	}
}

// SmallConfig is a reduced-width configuration for fast tests and the
// default experiment scale (DESIGN.md §4); the architecture is unchanged.
func SmallConfig() Config {
	c := PaperConfig()
	c.LookForwardF = 48
	c.AttnDim = 16
	c.FusionDim = 32
	c.Heads = 2
	c.PageVocab = 1024
	c.PCVocab = 128
	c.LSTMHidden = 64
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.HistoryT < 1:
		return fmt.Errorf("models: HistoryT %d < 1", c.HistoryT)
	case c.LookForwardF < 1:
		return fmt.Errorf("models: LookForwardF %d < 1", c.LookForwardF)
	case c.AttnDim < 1 || c.FusionDim < 1:
		return fmt.Errorf("models: non-positive dims")
	case c.Heads < 1:
		return fmt.Errorf("models: Heads %d < 1", c.Heads)
	case c.FusionDim%c.Heads != 0:
		return fmt.Errorf("models: FusionDim %d must divide by Heads %d", c.FusionDim, c.Heads)
	case c.TransLayers < 0:
		return fmt.Errorf("models: negative TransLayers")
	case c.NumSegments < 1 || c.SegmentBits < 1 || c.SegmentBits > 64 || c.NumSegments > 64/c.SegmentBits:
		return fmt.Errorf("models: bad segmentation %dx%d bits", c.NumSegments, c.SegmentBits)
	case c.DeltaRange < 1 || c.DeltaRange > 512:
		return fmt.Errorf("models: DeltaRange %d out of range", c.DeltaRange)
	case c.PageVocab < 2 || c.PCVocab < 2:
		return fmt.Errorf("models: vocabularies need at least OOV + 1 tokens")
	case c.LSTMHidden < 1:
		return fmt.Errorf("models: LSTMHidden %d < 1", c.LSTMHidden)
	}
	return nil
}

// DeltaClasses is the multi-label output width of the delta predictor:
// 2*DeltaRange classes covering -DeltaRange..-1, +1..+DeltaRange.
func (c Config) DeltaClasses() int { return 2 * c.DeltaRange }

// DeltaToClass maps a block delta to its class index, ok=false if out of
// range or zero.
func (c Config) DeltaToClass(delta int64) (int, bool) {
	if delta == 0 || delta < -int64(c.DeltaRange) || delta > int64(c.DeltaRange) {
		return 0, false
	}
	if delta < 0 {
		return int(delta + int64(c.DeltaRange)), true // -R..-1 → 0..R-1
	}
	return int(delta) + c.DeltaRange - 1, true // 1..R → R..2R-1
}

// ClassToDelta inverts DeltaToClass.
func (c Config) ClassToDelta(class int) int64 {
	if class < c.DeltaRange {
		return int64(class) - int64(c.DeltaRange)
	}
	return int64(class - c.DeltaRange + 1)
}

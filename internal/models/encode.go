package models

import (
	"fmt"
	"sort"
)

// Vocab is a frequency-capped tokenizer for pages or PCs. Token 0 is
// reserved for out-of-vocabulary values; tokens 1..Size-1 are assigned to
// the most frequent values seen during Build.
type Vocab struct {
	cap    int
	tokens map[uint64]int
	values []uint64 // token -> value; values[0] unused (OOV)
}

// BuildVocab assigns tokens to the most frequent values, capped at capacity.
func BuildVocab(values []uint64, capacity int) *Vocab {
	counts := map[uint64]int{}
	for _, v := range values {
		counts[v]++
	}
	type kv struct {
		v uint64
		n int
	}
	items := make([]kv, 0, len(counts))
	for v, n := range counts {
		items = append(items, kv{v, n})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].v < items[j].v
	})
	voc := &Vocab{cap: capacity, tokens: make(map[uint64]int), values: []uint64{0}}
	for _, it := range items {
		if len(voc.values) >= capacity {
			break
		}
		voc.tokens[it.v] = len(voc.values)
		voc.values = append(voc.values, it.v)
	}
	return voc
}

// Token returns the token for v (0 when OOV).
//
//mpgraph:noalloc
func (v *Vocab) Token(x uint64) int { return v.tokens[x] }

// Value returns the value behind token t; ok=false for OOV/unknown tokens.
//
//mpgraph:noalloc
func (v *Vocab) Value(t int) (uint64, bool) {
	if t <= 0 || t >= len(v.values) {
		return 0, false
	}
	return v.values[t], true
}

// Size is the number of assigned tokens including OOV.
func (v *Vocab) Size() int { return len(v.values) }

// Capacity is the build-time cap (the embedding table size models use).
func (v *Vocab) Capacity() int { return v.cap }

// SegmentBlockInto splits a block address into cfg.NumSegments fields of
// cfg.SegmentBits bits (least-significant first) normalised to [0,1] — the
// TransFetch-style fine-grained address segmentation the spatial predictor
// consumes — and writes them into out (length cfg.NumSegments).
//
//mpgraph:noalloc
func SegmentBlockInto(cfg Config, block uint64, out []float64) {
	mask := uint64(1)<<cfg.SegmentBits - 1
	norm := float64(mask)
	for s := 0; s < cfg.NumSegments; s++ {
		out[s] = float64((block>>(s*cfg.SegmentBits))&mask) / norm
	}
}

// DeltaBitmap encodes the set of observed future deltas as a multi-hot
// vector of cfg.DeltaClasses() entries.
func DeltaBitmap(cfg Config, deltas []int64) []float64 {
	out := make([]float64, cfg.DeltaClasses())
	for _, d := range deltas {
		if cls, ok := cfg.DeltaToClass(d); ok {
			out[cls] = 1
		}
	}
	return out
}

// BinaryCode returns the bits-wide binary encoding of class id (Section
// 6.1's binary-encoding compression: 2^16 classes become 16 sigmoid
// outputs).
func BinaryCode(id, bits int) ([]float64, error) {
	if id < 0 || id >= 1<<bits {
		return nil, fmt.Errorf("models: class %d does not fit in %d bits", id, bits)
	}
	out := make([]float64, bits)
	for b := 0; b < bits; b++ {
		if id&(1<<b) != 0 {
			out[b] = 1
		}
	}
	return out, nil
}

// DecodeBinary inverts BinaryCode by thresholding each bit at 0.5.
//
//mpgraph:noalloc
func DecodeBinary(bits []float64) int {
	id := 0
	for b, v := range bits {
		if v >= 0.5 {
			id |= 1 << b
		}
	}
	return id
}

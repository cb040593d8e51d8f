package nn

import (
	"encoding/binary"
	"fmt"
	"io"

	"mpgraph/internal/binio"
	"mpgraph/internal/tensor"
)

// codec is one row of the parameter format table (DESIGN.md §12 "Artifact
// formats"): the magic that names a precision and how one parameter's
// values go on the wire. Both layouts are the magic, the param count, then
// per param its shape and its values.
type codec struct {
	magic uint64
	put   func(w *binio.Writer, vals []float64)
	get   func(r *binio.Reader, vals []float64)
}

var (
	// f64Params stores each value as its 8 float64 bytes.
	f64Params = codec{0x4d504e4e, // "MPNN"
		func(w *binio.Writer, vals []float64) { binio.Put(w, vals, 8, binio.AppendF64) },
		func(r *binio.Reader, vals []float64) { binio.Fill(r, vals, 8, binio.F64) }}
	// f16Params stores each value as one IEEE binary16, halving the size.
	// Encoding rounds to nearest-even once, from the float64 bits; decoding
	// widens exactly, so a second round trip is lossless.
	f16Params = codec{0x4d504e48, // "MPNH"
		func(w *binio.Writer, vals []float64) {
			halves := make([]uint16, len(vals))
			tensor.EncodeF16(halves, vals)
			binio.Put(w, halves, 2, binary.LittleEndian.AppendUint16)
		},
		func(r *binio.Reader, vals []float64) {
			halves := make([]uint16, len(vals))
			binio.Fill(r, halves, 2, binary.LittleEndian.Uint16)
			tensor.WidenF16(vals, halves)
		}}
)

// Save serialises a module's parameters (shape-checked on Load).
func Save(w io.Writer, m Module) error { return save(w, m, f64Params) }

// SaveF16 serialises a module's parameters at binary16 precision.
func SaveF16(w io.Writer, m Module) error { return save(w, m, f16Params) }

// Load fills a structurally-identical module's parameters from a Save
// snapshot.
func Load(r io.Reader, m Module) error { return load(r, m, f64Params) }

// LoadF16 fills a structurally-identical module's parameters from a SaveF16
// snapshot, widening each binary16 value exactly.
func LoadF16(r io.Reader, m Module) error { return load(r, m, f16Params) }

func save(w io.Writer, m Module, c codec) error {
	bw := binio.NewWriter(w)
	params := m.Params()
	bw.U64(c.magic)
	bw.U64(uint64(len(params)))
	for _, p := range params {
		bw.U64(uint64(p.Rows))
		bw.U64(uint64(p.Cols))
		c.put(bw, p.Data)
	}
	return bw.Flush()
}

func load(r io.Reader, m Module, c codec) error {
	br := binio.NewReader(r)
	br.Magic(c.magic)
	params := m.Params()
	if n := br.U64(); br.Err() == nil && n != uint64(len(params)) {
		return fmt.Errorf("nn: snapshot has %d params, module has %d", n, len(params))
	}
	for i, p := range params {
		rows, cols := br.U64(), br.U64()
		if br.Err() != nil {
			break
		}
		if rows != uint64(p.Rows) || cols != uint64(p.Cols) {
			return fmt.Errorf("nn: param %d shape %dx%d, snapshot %dx%d", i, p.Rows, p.Cols, rows, cols)
		}
		c.get(br, p.Data)
	}
	if err := br.Err(); err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	return nil
}

// CopyParams copies src's parameter values into dst (shapes must match).
func CopyParams(dst, src Module) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: param count mismatch %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if dp[i].Rows != sp[i].Rows || dp[i].Cols != sp[i].Cols {
			return fmt.Errorf("nn: param %d shape mismatch", i)
		}
		copy(dp[i].Data, sp[i].Data)
	}
	return nil
}

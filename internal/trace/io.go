package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"mpgraph/internal/binio"
)

const traceMagic = 0x4d505452 // "MPTR"

// accessSize is an access record's width: Addr, PC, then Core, Phase, Gap
// and the write flag.
const accessSize = 20

// Write serialises a trace in a compact little-endian binary format.
func Write(w io.Writer, t *Trace) error {
	bw := binio.NewWriter(w)
	bw.U64(traceMagic)
	bw.String(t.App)
	bw.String(t.Framework)
	bw.U64(uint64(t.NumPhases))
	bw.U64(uint64(len(t.IterationStarts)))
	bw.U64(uint64(len(t.Accesses)))
	binio.Put(bw, t.IterationStarts, 8, func(b []byte, s int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(s)) })
	binio.Put(bw, t.Accesses, accessSize, appendAccess)
	return bw.Flush()
}

func appendAccess(b []byte, a Access) []byte {
	var flags uint8
	if a.Write {
		flags = 1
	}
	b = binary.LittleEndian.AppendUint64(b, a.Addr)
	b = binary.LittleEndian.AppendUint64(b, a.PC)
	return append(b, a.Core, a.Phase, a.Gap, flags)
}

func decodeAccess(b []byte) Access {
	return Access{
		Addr: binary.LittleEndian.Uint64(b[0:8]), PC: binary.LittleEndian.Uint64(b[8:16]),
		Core: b[16], Phase: b[17], Gap: b[18], Write: b[19]&1 != 0,
	}
}

// maxPhases bounds a header's phase count: an access's phase is a uint8.
const maxPhases = 256

// Read deserialises a trace written by Write. It trusts no count in the
// header (binio.Get grows both slices as their records arrive), and a trace
// that fails Validate is an error, not a value.
func Read(r io.Reader) (*Trace, error) {
	br := binio.NewReader(r)
	br.Magic(traceMagic)
	t := &Trace{App: br.String(1 << 16), Framework: br.String(1 << 16), NumPhases: int(br.Count(maxPhases))}
	numIters, numAcc := br.Count(1<<24), br.Count(1<<32)
	t.IterationStarts = binio.Get(br, numIters, 8, func(b []byte) int { return int(binary.LittleEndian.Uint64(b)) })
	t.Accesses = binio.Get(br, numAcc, accessSize, decodeAccess)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

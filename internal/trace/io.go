package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

const traceMagic = 0x4d505452 // "MPTR"

// Write serialises a trace in a compact little-endian binary format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := binary.Write(bw, binary.LittleEndian, uint64(traceMagic)); err != nil {
		return err
	}
	for _, s := range []string{t.App, t.Framework} {
		if err := writeString(bw, s); err != nil {
			return err
		}
	}
	hdr := []uint64{uint64(t.NumPhases), uint64(len(t.IterationStarts)), uint64(len(t.Accesses))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, s := range t.IterationStarts {
		if err := binary.Write(bw, binary.LittleEndian, uint64(s)); err != nil {
			return err
		}
	}
	for _, a := range t.Accesses {
		var flags uint8
		if a.Write {
			flags = 1
		}
		rec := [2]uint64{a.Addr, a.PC}
		if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, [4]uint8{a.Core, a.Phase, a.Gap, flags}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPhases bounds a header's phase count: an access's phase is a uint8.
const maxPhases = 256

// readChunk is how many records Read makes room for before the first
// arrives.
const readChunk = 1 << 12

// Read deserialises a trace written by Write. It trusts no count in the
// header: both slices grow as their records arrive, never past what the
// header claims, so a forged count costs at most twice the bytes that follow
// it, and a trace that fails Validate is an error, not a value.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic uint64
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", magic)
	}
	t := &Trace{}
	var err error
	if t.App, err = readString(br); err != nil {
		return nil, err
	}
	if t.Framework, err = readString(br); err != nil {
		return nil, err
	}
	var numPhases, numIters, numAcc uint64
	for _, p := range []*uint64{&numPhases, &numIters, &numAcc} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if numPhases > maxPhases || numIters > 1<<24 || numAcc > 1<<32 {
		return nil, fmt.Errorf("trace: implausible header phases=%d iters=%d accesses=%d", numPhases, numIters, numAcc)
	}
	t.NumPhases = int(numPhases)
	var rec [20]byte // Addr, PC, then Core, Phase, Gap and the write flag
	for i := uint64(0); i < numIters; i++ {
		if _, err := io.ReadFull(br, rec[:8]); err != nil {
			return nil, fmt.Errorf("trace: iteration start %d: %w", i, err)
		}
		t.IterationStarts = grow(t.IterationStarts, numIters-i)
		t.IterationStarts = append(t.IterationStarts, int(binary.LittleEndian.Uint64(rec[:8])))
	}
	for i := uint64(0); i < numAcc; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: access %d: %w", i, err)
		}
		t.Accesses = grow(t.Accesses, numAcc-i)
		t.Accesses = append(t.Accesses, Access{
			Addr: binary.LittleEndian.Uint64(rec[0:8]), PC: binary.LittleEndian.Uint64(rec[8:16]),
			Core: rec[16], Phase: rec[17], Gap: rec[18], Write: rec[19]&1 != 0,
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// grow makes room in s for one more element when it is full: readChunk, or
// as many again as s holds, but never more than the left records claimed.
func grow[E any](s []E, left uint64) []E {
	if len(s) < cap(s) {
		return s
	}
	n := uint64(max(len(s), readChunk))
	return slices.Grow(s, int(min(n, left)))
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
)

// TestRoundTrip writes every kind of value, with blocks that span several
// buffers, and reads them back.
func TestRoundTrip(t *testing.T) {
	halves := make([]uint16, 3*bufSize+5)
	for i := range halves {
		halves[i] = uint16(i * 7)
	}
	floats := []float64{0, -1.5, 1e300, 5e-324}
	blob := bytes.Repeat([]byte("mpgraph"), bufSize/3)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if NewWriter(w) != w {
		t.Fatal("NewWriter wrapped a *Writer")
	}
	w.U64(0x4d505452)
	w.String("gpop")
	w.U64(uint64(len(halves)))
	Put(w, halves, 2, binary.LittleEndian.AppendUint16)
	Put(w, floats, 8, AppendF64)
	w.U64(uint64(len(blob)))
	w.Bytes(blob)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if NewReader(r) != r {
		t.Fatal("NewReader wrapped a *Reader")
	}
	r.Magic(0x4d505452)
	s := r.String(16)
	gotHalves := Get(r, r.Count(1<<20), 2, binary.LittleEndian.Uint16)
	gotFloats := make([]float64, len(floats))
	Fill(r, gotFloats, 8, F64)
	gotBlob := r.Bytes(r.Count(1 << 20))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if s != "gpop" || !slices.Equal(gotHalves, halves) || !slices.Equal(gotFloats, floats) || !bytes.Equal(gotBlob, blob) {
		t.Fatal("values differ after a round trip")
	}
	if r.U64(); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("reading past the end: %v, want io.ErrUnexpectedEOF", r.Err())
	}
}

// TestReaderErrorsStick: the first failure is the stream's error, and every
// later read returns zero values without touching the input.
func TestReaderErrorsStick(t *testing.T) {
	for _, c := range []struct {
		name string
		read func(r *Reader)
	}{
		{"magic", func(r *Reader) { r.Magic(2) }},
		{"count", func(r *Reader) { r.Count(0) }},
		{"string", func(r *Reader) { r.String(0) }},
	} {
		r := NewReader(bytes.NewReader(binary.LittleEndian.AppendUint64(nil, 1)))
		c.read(r)
		first := r.Err()
		if first == nil {
			t.Fatalf("%s: no error", c.name)
		}
		if r.U64() != 0 || r.Bytes(4) != nil || Get(r, 1, 8, F64) != nil || r.Err() != first {
			t.Fatalf("%s: a read after %v went on", c.name, first)
		}
	}
}

// TestForgedCountAllocatesAsRecordsArrive: a count claiming 2^27 records
// (1 GiB) in front of 10,000 costs a few times the bytes that follow plus a
// few buffers, not what it claims.
func TestForgedCountAllocatesAsRecordsArrive(t *testing.T) {
	const records = 10_000
	in := binary.LittleEndian.AppendUint64(nil, 1<<27)
	in = append(in, make([]byte, 8*records)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(in))
	got := Get(r, r.Count(1<<32), 8, binary.LittleEndian.Uint64)
	runtime.ReadMemStats(&after)
	if got != nil || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("forged count read %d records, err %v", len(got), r.Err())
	}
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(in)+4*bufSize); grew > bound {
		t.Fatalf("a forged count behind %d bytes allocated %d, over %d", len(in), grew, bound)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriterErrorsStick: a failed write is what Flush reports, whatever
// follows it.
func TestWriterErrorsStick(t *testing.T) {
	w := NewWriter(failWriter{})
	Put(w, make([]uint64, bufSize), 8, binary.LittleEndian.AppendUint64)
	w.String("after")
	if err := w.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush = %v, want the write's error", err)
	}
}

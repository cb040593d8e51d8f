// Package binio is the one little-endian codec under every binary artifact
// MPGraph writes and reads back (DESIGN.md §10 "Artifact formats"). Both
// sides keep their first error and skip every later call, so a format is a
// straight run of calls with one check at the end. The reader trusts no
// count: Count bounds it, and Get and Bytes grow their slice as records
// arrive, so a forged count costs at most about twice the bytes that follow.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// bufSize is both sides' buffer, and the most bytes a slice read waits for
// at once.
const bufSize = 1 << 16

// Writer encodes values onto a buffered stream.
type Writer struct {
	bw  *bufio.Writer
	err error
}

// NewWriter returns w itself when it is a *Writer, so a format written
// inside another (a module inside a snapshot) shares its buffer and error.
func NewWriter(w io.Writer) *Writer {
	if bw, ok := w.(*Writer); ok {
		return bw
	}
	return &Writer{bw: bufio.NewWriterSize(w, bufSize)}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.Bytes(p); w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Bytes writes p as it is.
func (w *Writer) Bytes(p []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
}

// U64 writes v in 8 bytes.
func (w *Writer) U64(v uint64) { w.Bytes(binary.LittleEndian.AppendUint64(w.bw.AvailableBuffer(), v)) }

// String writes s behind its length in 4 bytes.
func (w *Writer) String(s string) {
	w.Bytes(append(binary.LittleEndian.AppendUint32(w.bw.AvailableBuffer(), uint32(len(s))), s...))
}

// Flush writes out the buffer and returns the stream's first error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Put writes each element of v in size bytes, appended by put.
func Put[E any](w *Writer, v []E, size int, put func([]byte, E) []byte) {
	for len(v) > 0 && w.err == nil {
		b := w.bw.AvailableBuffer()
		n := min(len(v), cap(b)/size)
		if n == 0 {
			w.err = w.bw.Flush()
			continue
		}
		for _, e := range v[:n] {
			b = put(b, e)
		}
		w.Bytes(b)
		v = v[n:]
	}
}

// Reader decodes values from a buffered stream. A value it cannot read
// whole is io.ErrUnexpectedEOF: a format ends where its last value does.
type Reader struct {
	br  *bufio.Reader
	err error
}

// NewReader returns r itself when it is a *Reader, so a format read inside
// another shares its buffer and error, and no buffer swallows the bytes of
// what follows.
func NewReader(r io.Reader) *Reader {
	if br, ok := r.(*Reader); ok {
		return br
	}
	return &Reader{br: bufio.NewReaderSize(r, bufSize)}
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	return r.br.Read(p)
}

// Err returns the stream's first error.
func (r *Reader) Err() error { return r.err }

// Buffered returns how many bytes the buffer holds that no read has taken.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Fail records err unless the stream has already failed.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// next returns the next n ≤ bufSize bytes, valid until the next read, or nil
// once the stream has failed.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	b, err := r.br.Peek(n)
	if err == nil {
		_, err = r.br.Discard(n)
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if r.Fail(err); r.err != nil {
		return nil
	}
	return b
}

// U64 reads an 8-byte value (0 once the stream has failed).
func (r *Reader) U64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// U32 reads a 4-byte value (0 once the stream has failed).
func (r *Reader) U32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Magic reads an 8-byte format tag and fails the stream unless it is want.
func (r *Reader) Magic(want uint64) {
	if got := r.U64(); r.err == nil && got != want {
		r.err = fmt.Errorf("bad magic %#x", got)
	}
}

// Count reads an 8-byte count, failing the stream (and returning 0) when it
// is over limit.
func (r *Reader) Count(limit uint64) uint64 {
	n := r.U64()
	if n > limit {
		r.Fail(fmt.Errorf("implausible count %d (limit %d)", n, limit))
		return 0
	}
	return n
}

// String reads what Writer.String wrote, failing the stream when its length
// is over limit.
func (r *Reader) String(limit uint32) string {
	n := r.U32()
	if n > limit {
		r.Fail(fmt.Errorf("implausible string length %d (limit %d)", n, limit))
	}
	return string(r.Bytes(uint64(n)))
}

// Bytes reads n bytes into a slice that grows as they arrive.
func (r *Reader) Bytes(n uint64) []byte { return Get(r, n, 1, func(b []byte) byte { return b[0] }) }

// Get reads n records of size bytes, decoding each with dec, into a slice
// that grows as they arrive: by a buffer's worth of records, or as many
// again as it holds, but never past n. It returns nil once the stream has
// failed.
func Get[E any](r *Reader, n uint64, size int, dec func([]byte) E) []E {
	var s []E
	for left := n; left > 0 && r.err == nil; {
		k := int(min(left, uint64(bufSize/size)))
		if cap(s)-len(s) < k {
			s = slices.Grow(s, int(min(uint64(max(len(s), k)), left)))
		}
		s = s[:len(s)+k]
		Fill(r, s[len(s)-k:], size, dec)
		left -= uint64(k)
	}
	if r.err != nil {
		return nil
	}
	return s
}

// Fill reads len(dst) records of size bytes into dst, decoding each with
// dec, a buffer's worth at a time.
func Fill[E any](r *Reader, dst []E, size int, dec func([]byte) E) {
	for len(dst) > 0 {
		k := min(len(dst), bufSize/size)
		b := r.next(k * size)
		if b == nil {
			return
		}
		for i := range dst[:k] {
			dst[i] = dec(b[i*size:])
		}
		dst = dst[k:]
	}
}

// AppendF64 is Put's float64 encoder: v's IEEE 754 bits in 8 bytes.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// F64 is Get's and Fill's float64 decoder, the inverse of AppendF64.
func F64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceRead: Read never panics and never trusts a header's counts; every
// trace it accepts validates, and writing it back reads back equal. The
// committed seeds (testdata/fuzz/FuzzTraceRead) are a valid trace, headers
// that claim 2^32 accesses and 2^24 iterations behind 40 bytes, decreasing
// iteration starts, a start past the accesses (with and without any), a
// phase >= NumPhases and a truncated record.
func FuzzTraceRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read accepted a trace that fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(Write(t)): %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("Read(Write(t)) = %+v, want %+v", back, tr)
		}
	})
}

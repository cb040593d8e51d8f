package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// FuzzTraceRead: Read never panics and never trusts a header's counts — it
// allocates at most 1 MiB plus four times the input, whatever they claim;
// every trace it accepts validates, and writing it back reads back equal. The
// committed seeds (testdata/fuzz/FuzzTraceRead) are a valid trace, headers
// that claim 2^32 accesses and 2^24 iterations behind 40 bytes, decreasing
// iteration starts, a start past the accesses (with and without any), a
// phase >= NumPhases and a truncated record.
func FuzzTraceRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+1<<20); grew > bound {
			t.Fatalf("reading %d bytes allocated %d, over %d", len(data), grew, bound)
		}
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

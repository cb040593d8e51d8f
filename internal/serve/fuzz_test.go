package serve

import (
	"bytes"
	"testing"
)

// FuzzDecodeEvents pins the feed decoder's contract on arbitrary bytes: it
// returns an error, or at most limit events — never a panic, never an
// over-long batch. The seed corpus is committed under testdata/fuzz.
func FuzzDecodeEvents(f *testing.F) {
	const limit = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := decodeEvents(bytes.NewReader(data), limit)
		if err != nil {
			if events != nil {
				t.Fatalf("error %v came with %d events", err, len(events))
			}
			return
		}
		if len(events) > limit {
			t.Fatalf("decoded %d events past the %d-event bound", len(events), limit)
		}
	})
}

package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// FuzzAppendPrediction holds the prediction encoder the HTTP stream and the
// replay log share to json.Encoder.Encode byte for byte: the session id's
// escaping (HTML characters, quotes, control bytes, U+2028/U+2029, invalid
// UTF-8), nil, empty and maximal block lists, and any seq. blocks is read as
// little-endian uint64s; a trailing partial word is dropped. The seed corpus
// is committed under testdata/fuzz.
func FuzzAppendPrediction(f *testing.F) {
	f.Fuzz(func(t *testing.T, session string, seq uint64, blocks []byte, nilBlocks bool) {
		p := Prediction{Session: session, Seq: seq}
		if !nilBlocks {
			p.Blocks = make([]uint64, 0, len(blocks)/8)
			for ; len(blocks) >= 8; blocks = blocks[8:] {
				p.Blocks = append(p.Blocks, binary.LittleEndian.Uint64(blocks))
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(p); err != nil {
			t.Fatal(err)
		}
		const prefix = "{}\n"
		got := appendPrediction([]byte(prefix), predictionHead(session), p)
		if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("appendPrediction(%+v) = %q, encoding/json gives %q", p, got, prefix+want.String())
		}
	})
}

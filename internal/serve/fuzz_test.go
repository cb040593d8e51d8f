package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"slices"
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

// FuzzLoadReplay pins the -replay decoder's contract on arbitrary bytes: it
// returns an error and nothing else, or a non-empty, duplicate-free session
// order with one stream per session, each of 1..limit events, that holds
// every record in order — the records as an independent json.Decoder reads
// them, grouped by session. The seed corpus is committed under testdata/fuzz.
func FuzzLoadReplay(f *testing.F) {
	const limit = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		order, streams, err := loadReplay(bytes.NewReader(data), limit)
		if err != nil {
			if order != nil || streams != nil {
				t.Fatalf("error %v came with %d sessions", err, len(order))
			}
			return
		}
		if len(order) == 0 || len(streams) != len(order) {
			t.Fatalf("%d sessions in order, %d streams", len(order), len(streams))
		}
		want := map[string][]Event{}
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var rec ReplayRecord
			if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatalf("loadReplay accepted what json.Decoder rejects: %v", err)
			}
			want[rec.Session] = append(want[rec.Session], Event{Addr: rec.Addr, PC: rec.PC, Core: rec.Core})
		}
		for i, s := range order {
			if slices.Contains(order[:i], s) {
				t.Fatalf("session %q twice in the order", s)
			}
			if n := len(streams[s]); n < 1 || n > limit {
				t.Fatalf("session %q has %d events, bound %d", s, n, limit)
			}
			if !slices.Equal(streams[s], want[s]) {
				t.Fatalf("session %q: %v, records say %v", s, streams[s], want[s])
			}
		}
		if len(want) != len(order) {
			t.Fatalf("%d sessions in the records, %d in the order", len(want), len(order))
		}
	})
}

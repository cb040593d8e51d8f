package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// replayTrace builds a JSONL trace of nSessions interleaved round-robin —
// the adversarial ordering for first-appearance bookkeeping — with each
// session's stream fixed by its identity alone.
func replayTrace(t *testing.T, nSessions, perSession int) []byte {
	t.Helper()
	streams := make([][]Event, nSessions)
	for i := range streams {
		streams[i] = sessionEvents(3000, i, perSession)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for j := 0; j < perSession; j++ {
		for i := 0; i < nSessions; i++ {
			ev := streams[i][j]
			rec := ReplayRecord{
				Session: fmt.Sprintf("r%d", i),
				Addr:    ev.Addr,
				PC:      ev.PC,
				Core:    ev.Core,
			}
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func runReplay(t *testing.T, trace []byte, batch, parallel int) []byte {
	t.Helper()
	srv := mustServer(t, ammaConfig(t, batch))
	var out bytes.Buffer
	if err := Replay(context.Background(), srv, bytes.NewReader(trace), &out, parallel); err != nil {
		t.Fatalf("Replay(batch=%d, parallel=%d) = %v", batch, parallel, err)
	}
	ctx, cancel := contextWithTestTimeout()
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after replay = %v", err)
	}
	return out.Bytes()
}

// TestReplayByteIdentical pins the acceptance contract: the prediction log
// of a replayed trace is byte-identical across worker parallelism and batch
// size, unbatched (batch 0) included. An unbatched call is the B=1 case of
// the batched kernels and those are composition-independent (PR 7), so
// regrouping sessions into different inference batches — or running them on
// one worker versus four — must not move a single bit of any prediction.
func TestReplayByteIdentical(t *testing.T) {
	trace := replayTrace(t, 6, 80)

	var ref []byte
	for _, batch := range []int{0, 1, 8} {
		for _, parallel := range []int{1, 4} {
			got := runReplay(t, trace, batch, parallel)
			if len(got) == 0 {
				t.Fatalf("batch=%d parallel=%d produced an empty log", batch, parallel)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("batch=%d parallel=%d prediction log diverges from reference", batch, parallel)
			}
		}
	}

	// The reference log is well-formed: every session's predictions appear
	// in first-appearance order with strictly increasing sequence numbers
	// (warmup events and deadline-suppressed accesses emit nothing, so the
	// numbering may skip but never reorder).
	dec := json.NewDecoder(bytes.NewReader(ref))
	var (
		order []string
		seen  = map[string]uint64{}
	)
	for {
		var p Prediction
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("replay log is not valid JSONL: %v", err)
		}
		if seen[p.Session] == 0 {
			order = append(order, p.Session)
		}
		if p.Seq <= seen[p.Session] {
			t.Fatalf("session %s: seq %d after %d", p.Session, p.Seq, seen[p.Session])
		}
		seen[p.Session] = p.Seq
	}
	if len(order) != 6 {
		t.Fatalf("log covers %d sessions, want 6", len(order))
	}
	if want := "r0 r1 r2 r3 r4 r5"; strings.Join(order, " ") != want {
		t.Fatalf("session order = %v, want first-appearance order", order)
	}
}

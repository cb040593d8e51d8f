package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

// writePayload / readPayload are the test's (de)serializer pair.
func writePayload(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

func readAll(dst *[]byte) func(io.Reader) error {
	return func(r io.Reader) error {
		b, err := io.ReadAll(r)
		*dst = b
		return err
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB, 0x01, 0x7f}, 1000)
	if err := s.Save("suite-gpop/pr/rmat", "cfg-v1", writePayload(payload)); err != nil {
		t.Fatal(err)
	}
	// The sanitized file must exist and no temp file may linger.
	if _, err := os.Stat(s.Path("suite-gpop/pr/rmat")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}

	var got []byte
	ok, err := s.Load("suite-gpop/pr/rmat", "cfg-v1", readAll(&got))
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload did not round-trip")
	}
	if st := s.Stats(); st.Saves != 1 || st.Hits != 1 || st.Misses != 0 || st.Corruptions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreMissAndStale(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	ok, err := s.Load("absent", "m", readAll(&got))
	if err != nil || ok {
		t.Fatalf("missing checkpoint: Load = %v, %v", ok, err)
	}
	if err := s.Verify("absent"); !errors.Is(err, ErrCheckpointMiss) {
		t.Fatalf("Verify(absent) = %v", err)
	}

	if err := s.Save("k", "fingerprint-A", writePayload([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	ok, err = s.Load("k", "fingerprint-B", readAll(&got))
	if err != nil || ok {
		t.Fatalf("stale meta must be a miss: Load = %v, %v", ok, err)
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}

func TestStoreOverwrite(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", "m", writePayload([]byte("old old old"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", "m", writePayload([]byte("new"))); err != nil {
		t.Fatal(err)
	}
	var got []byte
	ok, err := s.Load("k", "m", readAll(&got))
	if err != nil || !ok || string(got) != "new" {
		t.Fatalf("Load after overwrite = %v, %v, %q", ok, err, got)
	}
}

// TestStoreTrailingPayloadIsCorrupt: a CRC-valid record whose reader stops
// short of the payload's end is corrupt, not a hit. The reader takes 62 of
// 100 bytes one at a time, so the buffer under it has pulled in all 100: the
// remainder counts what the reader took, not what the buffer did.
func TestStoreTrailingPayloadIsCorrupt(t *testing.T) {
	events := &Log{}
	s, err := NewStore(t.TempDir(), nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", "m", writePayload(make([]byte, 100))); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		take    int
		wantHit bool
	}{{100, true}, {62, false}} {
		ok, err := s.Load("k", "m", func(r io.Reader) error {
			_, err := io.ReadFull(iotest.OneByteReader(r), make([]byte, c.take))
			return err
		})
		if err != nil || ok != c.wantHit {
			t.Fatalf("reading %d of 100 bytes: Load = %v, %v; want %v, nil", c.take, ok, err, c.wantHit)
		}
	}
	if st := s.Stats(); st.Hits != 1 || st.Corruptions != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 corruption", st)
	}
	if ev := events.Events(); len(ev) != 1 || !strings.Contains(ev[0].Detail, "trailing 38 payload bytes") {
		t.Fatalf("events = %+v, want one naming 38 trailing bytes", ev)
	}
}

// TestStoreCorruptionMatrix is the satellite-task coverage: a truncated
// file, a flipped payload byte, and a wrong-version header must each be
// rejected with an error (never a panic) and degrade to a cache miss.
func TestStoreCorruptionMatrix(t *testing.T) {
	cases := []struct {
		name       string
		mutate     func(t *testing.T, path string)
		wantReason string
	}{
		{
			name: "truncated",
			mutate: func(t *testing.T, path string) {
				b := readFile(t, path)
				writeFile(t, path, b[:len(b)-7])
			},
			wantReason: "size",
		},
		{
			name: "truncated-into-header",
			mutate: func(t *testing.T, path string) {
				writeFile(t, path, readFile(t, path)[:11])
			},
			wantReason: "truncated header",
		},
		{
			name: "flipped-payload-byte",
			mutate: func(t *testing.T, path string) {
				b := readFile(t, path)
				b[len(b)-2] ^= 0x40
				writeFile(t, path, b)
			},
			wantReason: "checksum",
		},
		{
			name: "wrong-version-header",
			mutate: func(t *testing.T, path string) {
				b := readFile(t, path)
				binary.LittleEndian.PutUint64(b[8:16], 99)
				writeFile(t, path, b)
			},
			wantReason: "unsupported version",
		},
		{
			name: "bad-magic",
			mutate: func(t *testing.T, path string) {
				b := readFile(t, path)
				binary.LittleEndian.PutUint64(b[0:8], 0xdeadbeef)
				writeFile(t, path, b)
			},
			wantReason: "bad magic",
		},
		{
			name: "empty-file",
			mutate: func(t *testing.T, path string) {
				writeFile(t, path, nil)
			},
			wantReason: "truncated header",
		},
		{
			name: "mid-payload-bit-flip",
			mutate: func(t *testing.T, path string) {
				// Flip a single bit in the middle of the CRC'd payload (the
				// envelope fields stay pristine, so only the checksum can
				// catch it). Header is 36 bytes, meta is "m" (1 byte).
				b := readFile(t, path)
				payloadOff := 36 + 1
				b[payloadOff+(len(b)-payloadOff)/2] ^= 0x01
				writeFile(t, path, b)
			},
			wantReason: "checksum",
		},
		{
			name: "length-field-skew",
			mutate: func(t *testing.T, path string) {
				b := readFile(t, path)
				plen := binary.LittleEndian.Uint64(b[16:24])
				binary.LittleEndian.PutUint64(b[16:24], plen+1)
				writeFile(t, path, b)
			},
			wantReason: "size",
		},
		{
			name: "implausible-meta-length",
			mutate: func(t *testing.T, path string) {
				// A corrupt meta length must be bounds-rejected before it can
				// drive a giant allocation.
				b := readFile(t, path)
				binary.LittleEndian.PutUint32(b[32:36], 1<<30)
				writeFile(t, path, b)
			},
			wantReason: "implausible meta length",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events := &Log{}
			s, err := NewStore(t.TempDir(), nil, events)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Save("k", "m", writePayload(bytes.Repeat([]byte("payload"), 64))); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, s.Path("k"))

			// Verify must return a descriptive *CorruptError, never panic.
			err = s.Verify("k")
			if !IsCorrupt(err) {
				t.Fatalf("Verify = %v, want corrupt", err)
			}
			if !strings.Contains(err.Error(), tc.wantReason) {
				t.Fatalf("Verify = %q, want reason containing %q", err, tc.wantReason)
			}

			// Load must degrade to a recomputable cache miss and log it.
			var got []byte
			ok, err := s.Load("k", "m", readAll(&got))
			if err != nil || ok {
				t.Fatalf("Load of corrupt checkpoint = %v, %v; want miss", ok, err)
			}
			if s.Stats().Corruptions != 1 {
				t.Fatalf("stats = %+v, want 1 corruption", s.Stats())
			}
			if events.Count("checkpoint", "corrupt-checkpoint") != 1 {
				t.Fatalf("events = %v, want one corrupt-checkpoint", events.Events())
			}
		})
	}
}

// TestStoreMetaBitFlipIsStaleMiss: the meta fingerprint is outside the
// payload CRC, so a flipped meta byte surfaces as staleness (the
// fingerprint no longer matches), not corruption — still a cache miss,
// still never a panic, and Verify (which checks the envelope, not the
// caller's fingerprint) still accepts the file.
func TestStoreMetaBitFlipIsStaleMiss(t *testing.T) {
	events := &Log{}
	s, err := NewStore(t.TempDir(), nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", "meta-v1", writePayload([]byte("payload"))); err != nil {
		t.Fatal(err)
	}
	b := readFile(t, s.Path("k"))
	b[36] ^= 0x20 // first meta byte: "meta-v1" -> "Meta-v1"
	writeFile(t, s.Path("k"), b)

	if err := s.Verify("k"); err != nil {
		t.Fatalf("Verify = %v; envelope is intact, want nil", err)
	}
	var got []byte
	ok, err := s.Load("k", "meta-v1", readAll(&got))
	if err != nil || ok {
		t.Fatalf("Load with flipped meta = %v, %v; want stale miss", ok, err)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Corruptions != 0 {
		t.Fatalf("stats = %+v, want 1 miss and 0 corruptions", st)
	}
}

func TestStoreInjectedFaults(t *testing.T) {
	t.Run("err-on-save", func(t *testing.T) {
		in := NewInjector(1).Arm(PointCheckpointIO, KindErr, 1)
		s, err := NewStore(t.TempDir(), in, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Save("k", "m", writePayload([]byte("x")))
		var ie *InjectedError
		if !errors.As(err, &ie) {
			t.Fatalf("Save = %v, want injected error", err)
		}
		if _, err := os.Stat(s.Path("k")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("failed save must not leave a checkpoint")
		}
	})
	t.Run("corrupt-on-save-detected-on-load", func(t *testing.T) {
		events := &Log{}
		in := NewInjector(1).Arm(PointCheckpointIO, KindCorrupt, 1)
		s, err := NewStore(t.TempDir(), in, events)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save("k", "m", writePayload([]byte("silently rotted"))); err != nil {
			t.Fatalf("corrupt-kind save must report success: %v", err)
		}
		var got []byte
		ok, err := s.Load("k", "m", readAll(&got))
		if err != nil || ok {
			t.Fatalf("Load = %v, %v; want corruption-driven miss", ok, err)
		}
		if s.Stats().Corruptions != 1 {
			t.Fatalf("stats = %+v", s.Stats())
		}
		if events.Count("checkpoint", "injected-corruption") != 1 || events.Count("checkpoint", "corrupt-checkpoint") != 1 {
			t.Fatalf("events = %v", events.Events())
		}
	})
}

func TestNilStoreIsMiss(t *testing.T) {
	var s *Store
	if err := s.Save("k", "m", writePayload([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	ok, err := s.Load("k", "m", func(io.Reader) error { t.Fatal("read on nil store"); return nil })
	if err != nil || ok {
		t.Fatalf("nil store Load = %v, %v", ok, err)
	}
	if s.Dir() != "" || s.Stats() != (StoreStats{}) {
		t.Fatal("nil store accessors")
	}
	if err := s.Verify("k"); !errors.Is(err, ErrCheckpointMiss) {
		t.Fatalf("nil store Verify = %v", err)
	}
}

func TestSanitizeKey(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Path("suite gpop/pr:rmat")
	base := filepath.Base(p)
	if strings.ContainsAny(base, "/: ") {
		t.Fatalf("unsanitized path %q", base)
	}
	if !strings.HasSuffix(base, ".ckpt") {
		t.Fatalf("path %q missing extension", base)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

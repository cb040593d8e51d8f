package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"mpgraph/internal/binio"
)

// Checkpoint file envelope (little-endian):
//
//	offset 0   magic    uint64  "MPCK"
//	offset 8   version  uint64  ckptVersion
//	offset 16  plen     uint64  payload byte length (patched after streaming)
//	offset 24  pcrc     uint64  CRC-64/ECMA of the payload (patched)
//	offset 32  metaLen  uint32
//	offset 36  meta     metaLen bytes (caller's fingerprint string)
//	...        payload  plen bytes
//
// Saves are atomic: the envelope is streamed to <name>.tmp, the length and
// checksum are patched in, the file is fsynced, and only then renamed over
// the final name — a crash mid-save leaves the previous checkpoint (or
// nothing) in place, never a torn file. Loads verify the whole envelope
// before the payload reader is handed to the caller, so corruption of any
// kind — truncation, bit flips, a foreign or future format — surfaces as a
// *CorruptError and is treated as a cache miss, never a panic.
const (
	ckptMagic   = uint64(0x4d50434b) // "MPCK"
	ckptVersion = uint64(1)
	// ckptHeaderSize is the fixed-size prefix before the meta string.
	ckptHeaderSize = 36
	// ckptMaxMeta bounds the meta string so a corrupt length field cannot
	// drive a huge allocation.
	ckptMaxMeta = 1 << 20
)

var ckptCRCTable = crc64.MakeTable(crc64.ECMA)

// ErrCheckpointMiss is returned (wrapped) by Store.Verify for a checkpoint
// that does not exist. Load folds misses into ok=false.
var ErrCheckpointMiss = errors.New("resilience: checkpoint miss")

// errStale marks an existing checkpoint whose meta fingerprint does not
// match the caller's — written by a different configuration, so unusable.
var errStale = errors.New("resilience: checkpoint stale (meta mismatch)")

// CorruptError reports a checkpoint that failed envelope verification.
type CorruptError struct {
	Path   string
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("resilience: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// IsCorrupt reports whether err is (or wraps) a *CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// StoreStats is a snapshot of a store's counters.
type StoreStats struct {
	Saves, Hits, Misses, Corruptions uint64
}

// Store is an atomic, checksummed checkpoint directory. A nil *Store is
// valid: Save and Load become no-ops (always a miss), so pipeline code can
// thread an optional store without conditionals.
type Store struct {
	dir    string
	inject *Injector
	events *Log

	saves, hits, misses, corruptions atomic.Uint64
}

// NewStore opens (creating if needed) a checkpoint directory. inject arms
// the checkpoint-io fault point; events receives corruption reports. Both
// may be nil.
func NewStore(dir string, inject *Injector, events *Log) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resilience: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resilience: create checkpoint dir: %w", err)
	}
	return &Store{dir: dir, inject: inject, events: events}, nil
}

// Dir returns the backing directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	return StoreStats{
		Saves:       s.saves.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corruptions: s.corruptions.Load(),
	}
}

// Path returns the on-disk path for key.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, sanitizeKey(key)+".ckpt")
}

// sanitizeKey maps an arbitrary key ("gpop/pr/rmat") to a flat file name.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, key)
}

// Save atomically writes the checkpoint for key: meta is the caller's
// configuration fingerprint (compared on load), write streams the payload.
// A nil store is a no-op. An injected checkpoint-io fault of KindCorrupt
// lets the save succeed and then flips one payload byte on disk, so the
// fault surfaces exactly the way real bit rot would: at load time, as a
// checksum mismatch.
func (s *Store) Save(key, meta string, write func(io.Writer) error) error {
	if s == nil {
		return nil
	}
	var corrupt bool
	if err := s.inject.Fire(PointCheckpointIO); err != nil {
		var ie *InjectedError
		if errors.As(err, &ie) && ie.Kind == KindCorrupt {
			corrupt = true
		} else {
			return err
		}
	}
	path := s.Path(key)
	if err := s.save(path, meta, write); err != nil {
		return err
	}
	s.saves.Add(1)
	if corrupt {
		if err := flipLastByte(path); err != nil {
			return err
		}
		s.events.Add("checkpoint", "injected-corruption", path)
	}
	return nil
}

func (s *Store) save(path, meta string, write func(io.Writer) error) (err error) {
	if len(meta) > ckptMaxMeta {
		return fmt.Errorf("resilience: checkpoint meta too large (%d bytes)", len(meta))
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()      //mpgraph:allow errdrop -- already failing; the Close error would mask the root cause
			os.Remove(tmp) //mpgraph:allow errdrop -- best-effort cleanup of the temp file on the failure path
		}
	}()

	bw := binio.NewWriter(f)
	for _, v := range []uint64{ckptMagic, ckptVersion, 0, 0} { // plen/pcrc patched below
		bw.U64(v)
	}
	bw.String(meta)
	crc := crc64.New(ckptCRCTable)
	if err = write(io.MultiWriter(bw, crc)); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	// Patch the payload length and checksum into the fixed header slots.
	var patch [16]byte
	binary.LittleEndian.PutUint64(patch[0:8], uint64(end)-ckptHeaderSize-uint64(len(meta)))
	binary.LittleEndian.PutUint64(patch[8:16], crc.Sum64())
	if _, err = f.WriteAt(patch[:], 16); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load opens, verifies, and reads the checkpoint for key. ok is true only
// when the checkpoint existed, carried the expected meta fingerprint,
// passed checksum verification, and read consumed the whole payload without
// error; one whose reader leaves payload bytes unread is corrupt. A missing,
// stale, or corrupt checkpoint is a cache miss (ok=false, nil
// error) — corruption is additionally counted and logged as a degradation
// event. A non-nil error is reserved for injected checkpoint-io faults and
// read-callback failures.
func (s *Store) Load(key, meta string, read func(io.Reader) error) (ok bool, err error) {
	if s == nil {
		return false, nil
	}
	if err := s.inject.Fire(PointCheckpointIO); err != nil {
		var ie *InjectedError
		if errors.As(err, &ie) && ie.Kind == KindCorrupt {
			// Corruption is a save-side fault; on load it degrades to a miss.
			s.misses.Add(1)
			return false, nil
		}
		return false, err
	}
	err = s.load(key, meta, read)
	switch {
	case err == nil:
		s.hits.Add(1)
		return true, nil
	case errors.Is(err, ErrCheckpointMiss), errors.Is(err, errStale):
		s.misses.Add(1)
		return false, nil
	case IsCorrupt(err):
		s.corruptions.Add(1)
		s.events.Add("checkpoint", "corrupt-checkpoint", err.Error())
		return false, nil
	default:
		return false, err
	}
}

func (s *Store) load(key, meta string, read func(io.Reader) error) error {
	path := s.Path(key)
	gotMeta, plen, err := s.verifyEnvelope(path)
	if err != nil {
		return err
	}
	if gotMeta != meta {
		return errStale
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrCheckpointMiss, err)
	}
	defer f.Close() // read-only descriptor; the payload was already checksummed
	payloadOff := int64(ckptHeaderSize + len(gotMeta))
	if _, err := f.Seek(payloadOff, io.SeekStart); err != nil {
		return err
	}
	lr := &io.LimitedReader{R: f, N: int64(plen)}
	br := binio.NewReader(lr)
	if err := read(br); err != nil {
		return err
	}
	// What read left: the bytes still in the file's payload and those the
	// buffer pulled in but handed to nobody.
	if left := lr.N + int64(br.Buffered()); left > 0 {
		return &CorruptError{Path: path, Reason: fmt.Sprintf("trailing %d payload bytes", left)}
	}
	return nil
}

// Verify checks the envelope of key's checkpoint — magic, version, meta
// bounds, exact file size, payload checksum — without handing the payload
// to anyone. Returns nil for a valid checkpoint, ErrCheckpointMiss
// (wrapped) if absent, or a *CorruptError describing the first defect.
func (s *Store) Verify(key string) error {
	if s == nil {
		return ErrCheckpointMiss
	}
	_, _, err := s.verifyEnvelope(s.Path(key)) //mpgraph:allow errdrop -- Verify is the yes/no form; Load consumes the meta and length
	return err
}

// verifyEnvelope validates the file and returns its meta string and payload
// length. It reads the whole payload once to check the CRC; Load then
// reopens for the caller. Two passes cost a second read of at most a few
// megabytes — cheap insurance for never handing a torn checkpoint to a
// deserializer.
func (s *Store) verifyEnvelope(path string) (meta string, plen uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", 0, fmt.Errorf("%w: %s", ErrCheckpointMiss, path)
		}
		return "", 0, err
	}
	defer f.Close() // read-only descriptor
	br := binio.NewReader(f)
	magic, version, plen, pcrc := br.U64(), br.U64(), br.U64(), br.U64()
	metaLen := br.U32()
	switch {
	case br.Err() != nil:
		return "", 0, &CorruptError{Path: path, Reason: "truncated header"}
	case magic != ckptMagic:
		return "", 0, &CorruptError{Path: path, Reason: fmt.Sprintf("bad magic %#x", magic)}
	case version != ckptVersion:
		return "", 0, &CorruptError{Path: path, Reason: fmt.Sprintf("unsupported version %d (want %d)", version, ckptVersion)}
	case metaLen > ckptMaxMeta:
		return "", 0, &CorruptError{Path: path, Reason: fmt.Sprintf("implausible meta length %d", metaLen)}
	}
	meta = string(br.Bytes(uint64(metaLen)))
	if br.Err() != nil {
		return "", 0, &CorruptError{Path: path, Reason: "truncated meta"}
	}
	st, err := f.Stat()
	if err != nil {
		return "", 0, err
	}
	wantSize := int64(ckptHeaderSize) + int64(metaLen) + int64(plen)
	if st.Size() != wantSize {
		return "", 0, &CorruptError{Path: path, Reason: fmt.Sprintf("size %d, envelope declares %d", st.Size(), wantSize)}
	}
	crc := crc64.New(ckptCRCTable)
	n, err := io.Copy(crc, io.LimitReader(br, int64(plen)))
	if err != nil {
		return "", 0, err
	}
	if uint64(n) != plen {
		return "", 0, &CorruptError{Path: path, Reason: "truncated payload"}
	}
	if crc.Sum64() != pcrc {
		return "", 0, &CorruptError{Path: path, Reason: fmt.Sprintf("payload checksum %#x, want %#x", crc.Sum64(), pcrc)}
	}
	return meta, plen, nil
}

// flipLastByte XOR-flips the final byte of the file at path (the injected-
// corruption primitive: the last payload byte breaks the CRC without
// touching the envelope fields).
func flipLastByte(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close() // WriteAt below is unbuffered; Close cannot lose the flip
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return nil
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], st.Size()-1); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b[:], st.Size()-1)
	return err
}

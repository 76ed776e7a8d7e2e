// Package store is the farm's embedded, crash-safe persistence layer: an
// append-only write-ahead log (WAL) of length-prefixed, CRC-checked frames
// in front of periodically compacted snapshots. It is the durability
// contract behind the session farm (internal/service): every terminal
// session, experiment job, retained trace and keyed create response is a
// keyed record; a daemon restart replays the snapshot and then the WAL,
// last write per key winning, so replay is idempotent even when a crash
// lands between the snapshot rename and the WAL truncation.
//
// Crash semantics: appends are buffered and flushed to the OS per Put (no
// per-record fsync — the farm's throughput budget), and fsynced on
// Compact, Sync, and Close. A hard kill can therefore tear the last
// frame(s); Open detects the torn tail (short header, short payload,
// impossible length, or CRC mismatch), keeps the intact prefix, truncates
// the garbage, and reports the discarded byte count in Recovery. What a
// frame never does is lie: a CRC-valid frame is byte-exact or it is not
// replayed at all.
//
// On-disk layout, both files (wal.log, snapshot.dat):
//
//	frame := u32 payloadLen | u32 crc32(payload) | payload
//	payload := u8 version | u16 keyLen | key | data
//
// The raw API (Put, Get, Scan, ...) carries opaque data. The farm's
// records go through Records (record.go), which alone owns their key
// format, value encoding (a version byte, then JSON), id watermarks and
// the policy for a record this binary cannot read: skip it, never delete
// it.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	walName     = "wal.log"
	snapName    = "snapshot.dat"
	snapTmpName = "snapshot.tmp"

	// frameHeader is u32 length + u32 crc.
	frameHeader = 8
	// maxFrameSize bounds a single record; anything larger read back from
	// disk is treated as corruption, not allocated.
	maxFrameSize = 16 << 20

	// recVersion is the record payload format version.
	recVersion = 1
	// tombVersion marks a deletion record: same layout as recVersion but
	// with no data bytes; replaying one removes the key from the index.
	// v1-only readers reject it as unknown, which is the right failure —
	// they would otherwise resurrect deleted keys.
	tombVersion = 2

	defaultCompactEvery = 1024
)

// ErrClosed marks an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Config opens a store.
type Config struct {
	// Dir is the data directory (created if absent).
	Dir string
	// CompactEvery is the number of appended WAL records between automatic
	// compacted snapshots (0: default 1024). Lower values bound recovery
	// replay time at the cost of more frequent snapshot rewrites.
	CompactEvery int
}

// Record is one keyed entry. Data is opaque to the store. Tombstone marks
// a deletion record (no data); replaying one removes the key.
type Record struct {
	Key       string
	Data      []byte
	Tombstone bool
}

// MarshalBinary renders the record payload (version | keyLen | key | data).
func (r Record) MarshalBinary() ([]byte, error) {
	if len(r.Key) == 0 {
		return nil, errors.New("store: empty record key")
	}
	if len(r.Key) > 0xFFFF {
		return nil, fmt.Errorf("store: key of %d bytes exceeds the 64KiB bound", len(r.Key))
	}
	version := byte(recVersion)
	if r.Tombstone {
		if len(r.Data) != 0 {
			return nil, errors.New("store: tombstone record carries data")
		}
		version = tombVersion
	}
	buf := make([]byte, 0, 3+len(r.Key)+len(r.Data))
	buf = append(buf, version)
	var kl [2]byte
	binary.LittleEndian.PutUint16(kl[:], uint16(len(r.Key)))
	buf = append(buf, kl[:]...)
	buf = append(buf, r.Key...)
	buf = append(buf, r.Data...)
	return buf, nil
}

// UnmarshalBinary parses a record payload.
func (r *Record) UnmarshalBinary(b []byte) error {
	if len(b) < 3 {
		return errors.New("store: record payload too short")
	}
	if b[0] != recVersion && b[0] != tombVersion {
		return fmt.Errorf("store: unknown record version %d", b[0])
	}
	kl := int(binary.LittleEndian.Uint16(b[1:3]))
	if len(b) < 3+kl || kl == 0 {
		return errors.New("store: record key length out of range")
	}
	r.Key = string(b[3 : 3+kl])
	r.Tombstone = b[0] == tombVersion
	if r.Tombstone {
		if len(b) != 3+kl {
			return errors.New("store: tombstone record carries data")
		}
		r.Data = nil
		return nil
	}
	r.Data = append([]byte(nil), b[3+kl:]...)
	return nil
}

// Recovery summarizes what Open found on disk.
type Recovery struct {
	// SnapshotRecords is the number of records replayed from the snapshot.
	SnapshotRecords int
	// WALRecords is the number of intact records replayed from the WAL.
	WALRecords int
	// TornBytes is the size of the discarded torn/corrupt WAL tail.
	TornBytes int64
}

// Store is an embedded keyed record store: an in-memory index (latest data
// per key) kept durable by the WAL + snapshot pair. All methods are safe
// for concurrent use.
type Store struct {
	dir          string
	compactEvery int

	mu          sync.Mutex
	wal         *os.File
	w           *bufio.Writer
	index       map[string][]byte
	sorted      []string // sorted key cache; nil when dirty
	walRecords  int
	appends     int64 // lifetime WAL appends (never reset by compaction)
	compactions int64
	replayTime  time.Duration // how long Open spent recovering
	rec         Recovery
	closed      bool
}

// Metrics is a snapshot of the store's observability counters.
type Metrics struct {
	// WALAppends counts records appended since Open (monotonic; compaction
	// does not reset it).
	WALAppends int64
	// Compactions counts snapshot rewrites since Open.
	Compactions int64
	// Keys is the live record count.
	Keys int
	// ReplayTime is how long Open spent replaying snapshot + WAL.
	ReplayTime time.Duration
}

// Metrics snapshots the store's counters; safe from any goroutine.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		WALAppends:  s.appends,
		Compactions: s.compactions,
		Keys:        len(s.index),
		ReplayTime:  s.replayTime,
	}
}

// Open recovers the store in cfg.Dir: the snapshot is replayed first, then
// the WAL (later frames override earlier ones per key), a torn WAL tail is
// truncated, and the WAL is reopened for appends.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = defaultCompactEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          cfg.Dir,
		compactEvery: cfg.CompactEvery,
		index:        make(map[string][]byte),
	}
	replayStart := time.Now()

	if f, err := os.Open(filepath.Join(cfg.Dir, snapName)); err == nil {
		n, _, rerr := replay(f, s.apply)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		s.rec.SnapshotRecords = n
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}

	walPath := filepath.Join(cfg.Dir, walName)
	if f, err := os.Open(walPath); err == nil {
		n, valid, rerr := replay(f, s.apply)
		info, serr := f.Stat()
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		if serr != nil {
			return nil, fmt.Errorf("store: %w", serr)
		}
		s.rec.WALRecords = n
		s.walRecords = n
		if torn := info.Size() - valid; torn > 0 {
			// A crash tore the tail: keep the intact prefix, drop the rest.
			s.rec.TornBytes = torn
			if err := os.Truncate(walPath, valid); err != nil {
				return nil, fmt.Errorf("store: truncating torn tail: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}

	s.replayTime = time.Since(replayStart)

	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	s.w = bufio.NewWriter(wal)
	return s, nil
}

// apply folds one replayed payload into the index.
func (s *Store) apply(payload []byte) error {
	var rec Record
	if err := rec.UnmarshalBinary(payload); err != nil {
		return err
	}
	if rec.Tombstone {
		delete(s.index, rec.Key)
	} else {
		s.index[rec.Key] = rec.Data
	}
	s.sorted = nil
	return nil
}

// replay reads frames until EOF or the first torn/corrupt frame, calling
// apply for each intact payload. It returns the record count and the byte
// offset just past the last intact frame. A torn tail is not an error —
// that is the crash the store exists to survive.
func replay(r io.Reader, apply func(payload []byte) error) (records int, valid int64, err error) {
	br := bufio.NewReader(r)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return records, valid, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxFrameSize {
			return records, valid, nil // impossible length: corrupt tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, valid, nil // bit rot or partial overwrite
		}
		if err := apply(payload); err != nil {
			return records, valid, err
		}
		valid += frameHeader + int64(length)
		records++
	}
}

// writeFrame emits one length-prefixed CRC-checked frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Put appends one record to the WAL and updates the index. The write is
// flushed to the OS before Put returns; it is fsynced at the next Compact,
// Sync, or Close. Crossing CompactEvery appended records triggers an
// automatic compaction.
func (s *Store) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	payload, err := Record{Key: key, Data: data}.MarshalBinary()
	if err != nil {
		return err
	}
	if err := writeFrame(s.w, payload); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if _, existed := s.index[key]; !existed {
		s.sorted = nil
	}
	s.index[key] = append([]byte(nil), data...)
	s.walRecords++
	s.appends++
	if s.walRecords >= s.compactEvery {
		return s.compactLocked()
	}
	return nil
}

// Delete appends a tombstone for key and drops it from the index. Deleting
// an absent key is a no-op (no WAL record). The next compaction omits the
// key entirely, so tombstones do not accumulate in the snapshot.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	payload, err := Record{Key: key, Tombstone: true}.MarshalBinary()
	if err != nil {
		return err
	}
	if err := writeFrame(s.w, payload); err != nil {
		return fmt.Errorf("store: delete: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: delete: %w", err)
	}
	delete(s.index, key)
	s.sorted = nil
	s.walRecords++
	s.appends++
	if s.walRecords >= s.compactEvery {
		return s.compactLocked()
	}
	return nil
}

// Get returns a copy of the latest data for key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.index[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Len returns the number of distinct keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Count returns how many keys carry the given prefix ("" for all) — a
// cheap observability read: no allocation, no sort.
func (s *Store) Count(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prefix == "" {
		return len(s.index)
	}
	n := 0
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// Keys returns the keys with the given prefix ("" for all), sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, k := range s.sortedLocked() {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// Scan visits records whose key has the given prefix, in ascending key
// order. The data slice is only valid for the duration of the callback.
// Returning an error aborts the scan.
func (s *Store) Scan(prefix string, fn func(key string, data []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.sortedLocked() {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if err := fn(k, s.index[k]); err != nil {
			return err
		}
	}
	return nil
}

// sortedLocked returns the cached sorted key slice, rebuilding it if dirty.
func (s *Store) sortedLocked() []string {
	if s.sorted == nil {
		s.sorted = make([]string, 0, len(s.index))
		for k := range s.index {
			s.sorted = append(s.sorted, k)
		}
		sort.Strings(s.sorted)
	}
	return s.sorted
}

// Recovery reports what Open found on disk.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Compact writes the full index as a fresh snapshot (atomically: temp file,
// fsync, rename) and then truncates the WAL. A crash between the rename and
// the truncation double-applies the WAL records on the next Open, which is
// harmless: replay is last-write-wins per key.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmpPath := filepath.Join(s.dir, snapTmpName)
	f, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, k := range s.sortedLocked() {
		payload, err := Record{Key: k, Data: s.index[k]}.MarshalBinary()
		if err == nil {
			err = writeFrame(bw, payload)
		}
		if err != nil {
			f.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := bw.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, snapName)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The snapshot is durable; the WAL's records are now redundant.
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	s.walRecords = 0
	s.compactions++
	return nil
}

// Close flushes, fsyncs, and closes the WAL. It is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.w.Flush()
	if serr := s.wal.Sync(); err == nil {
		err = serr
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

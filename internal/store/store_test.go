package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T, dir string, compactEvery int) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, key, data string) {
	t.Helper()
	if err := s.Put(key, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	put(t, s, "s-000001", "one")
	put(t, s, "s-000002", "two")
	put(t, s, "s-000001", "one-v2") // overwrite: last write wins
	if got, ok := s.Get("s-000001"); !ok || string(got) != "one-v2" {
		t.Fatalf("get: %q %v", got, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Put("k", nil); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}

	s2 := open(t, dir, 0)
	defer s2.Close()
	rec := s2.Recovery()
	if rec.WALRecords != 3 || rec.SnapshotRecords != 0 || rec.TornBytes != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	if got, ok := s2.Get("s-000001"); !ok || string(got) != "one-v2" {
		t.Fatalf("reopen get: %q %v", got, ok)
	}
	if got, ok := s2.Get("s-000002"); !ok || string(got) != "two" {
		t.Fatalf("reopen get: %q %v", got, ok)
	}
	if keys := s2.Keys(""); len(keys) != 2 || keys[0] != "s-000001" || keys[1] != "s-000002" {
		t.Fatalf("keys %v", keys)
	}
}

// TestTornTailIsTruncated is the crash test: a hard kill mid-append leaves
// a partial frame at the WAL tail. Reopening must recover the intact
// prefix, discard the torn frame, and leave a WAL that appends cleanly.
func TestTornTailIsTruncated(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		// The header itself is cut short.
		"short-header": func(b []byte) []byte { return append(b, 0x07, 0x00) },
		// A full header promising more payload bytes than exist.
		"short-payload": func(b []byte) []byte {
			return append(b, 0x20, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y')
		},
		// An intact-length frame whose payload was corrupted in place.
		"crc-mismatch": func(b []byte) []byte {
			return append(b, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'z', 'z')
		},
		// An impossible (giant) length field.
		"insane-length": func(b []byte) []byte {
			return append(b, 0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x00)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 0)
			put(t, s, "a", "alpha")
			put(t, s, "b", "beta")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			walPath := filepath.Join(dir, walName)
			b, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			intact := len(b)
			if err := os.WriteFile(walPath, tear(b), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := open(t, dir, 0)
			rec := s2.Recovery()
			if rec.WALRecords != 2 {
				t.Fatalf("recovered %d records, want the intact prefix of 2", rec.WALRecords)
			}
			if rec.TornBytes == 0 {
				t.Fatal("torn tail not reported")
			}
			if got, ok := s2.Get("a"); !ok || string(got) != "alpha" {
				t.Fatalf("prefix lost: %q %v", got, ok)
			}
			if got, ok := s2.Get("b"); !ok || string(got) != "beta" {
				t.Fatalf("prefix lost: %q %v", got, ok)
			}
			// The torn bytes are gone from disk, and the WAL appends cleanly.
			if info, err := os.Stat(walPath); err != nil || info.Size() != int64(intact) {
				t.Fatalf("wal not truncated to the intact prefix: %v %v", info, err)
			}
			put(t, s2, "c", "gamma")
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := open(t, dir, 0)
			defer s3.Close()
			if got, ok := s3.Get("c"); !ok || string(got) != "gamma" {
				t.Fatalf("post-recovery append lost: %q %v", got, ok)
			}
			if s3.Recovery().TornBytes != 0 {
				t.Fatalf("second recovery still torn: %+v", s3.Recovery())
			}
		})
	}
}

// TestCompactionSnapshotsAndTruncatesWAL drives enough Puts to cross the
// auto-compaction threshold and asserts the snapshot takes over from the
// WAL, with everything intact after reopen.
func TestCompactionSnapshotsAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 8)
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("k-%03d", i%10), fmt.Sprintf("v%d", i))
	}
	if n := s.WALRecords(); n >= 8 {
		t.Fatalf("wal holds %d records, auto-compaction never fired", n)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 8)
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotRecords == 0 {
		t.Fatalf("reopen ignored the snapshot: %+v", rec)
	}
	if s2.Len() != 10 {
		t.Fatalf("len %d after reopen", s2.Len())
	}
	// The latest write per key wins across snapshot + wal.
	if got, _ := s2.Get("k-009"); string(got) != "v19" {
		t.Fatalf("k-009 = %q", got)
	}
}

// TestReplayIsIdempotentAcrossSnapshotAndWAL simulates the crash window
// between the snapshot rename and the WAL truncation: both files hold the
// same records, and replay must not duplicate or resurrect anything.
func TestReplayIsIdempotentAcrossSnapshotAndWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	put(t, s, "a", "v1")
	put(t, s, "b", "v1")
	if err := s.Compact(); err != nil { // snapshot now holds a,b
		t.Fatal(err)
	}
	put(t, s, "a", "v2") // wal holds the newer a
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-create the crash window: prepend the snapshotted records back into
	// the WAL as if truncation had never happened.
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, append(append([]byte{}, snap...), wal...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("len %d after double replay", s2.Len())
	}
	if got, _ := s2.Get("a"); string(got) != "v2" {
		t.Fatalf("a = %q, want the WAL's newer v2", got)
	}
	if got, _ := s2.Get("b"); string(got) != "v1" {
		t.Fatalf("b = %q", got)
	}
}

func TestScanPrefixOrderAndAbort(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	defer s.Close()
	put(t, s, "x-000002", "j2")
	put(t, s, "s-000002", "b")
	put(t, s, "s-000001", "a")
	put(t, s, "x-000001", "j1")

	var keys []string
	if err := s.Scan("s-", func(k string, data []byte) error {
		keys = append(keys, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "s-000001" || keys[1] != "s-000002" {
		t.Fatalf("scan order %v", keys)
	}
	wantErr := fmt.Errorf("stop")
	calls := 0
	if err := s.Scan("", func(string, []byte) error { calls++; return wantErr }); err != wantErr {
		t.Fatalf("scan abort: %v", err)
	}
	if calls != 1 {
		t.Fatalf("scan continued after abort: %d calls", calls)
	}
}

func TestRecordBinaryRoundTripAndBounds(t *testing.T) {
	rec := Record{Key: "s-000042", Data: []byte{0, 1, 2, 255}}
	b, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Key != rec.Key || !bytes.Equal(got.Data, rec.Data) {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := (Record{}).MarshalBinary(); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := got.UnmarshalBinary([]byte{recVersion}); err == nil {
		t.Fatal("short payload accepted")
	}
	if err := got.UnmarshalBinary([]byte{99, 1, 0, 'k'}); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestConcurrentPuts hammers the store from many goroutines across the
// compaction threshold; run under -race in CI.
func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 32)
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-%03d", w, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				if _, ok := s.Get(key); !ok {
					t.Errorf("get %s: missing", key)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*each {
		t.Fatalf("len %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 32)
	defer s2.Close()
	if s2.Len() != writers*each {
		t.Fatalf("reopen len %d", s2.Len())
	}
}

// TestDeleteTombstonesSurviveReplayAndCompaction pins the deletion
// contract: a delete removes the key now, survives a reopen as a WAL
// tombstone, and vanishes entirely from the compacted snapshot.
func TestDeleteTombstonesSurviveReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	put(t, s, "idem-a", "resp-a")
	put(t, s, "idem-b", "resp-b")
	if err := s.Delete("idem-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("idem-a"); ok {
		t.Fatal("deleted key still readable")
	}
	if s.Len() != 1 {
		t.Fatalf("len %d after delete, want 1", s.Len())
	}
	// Deleting an absent key is a no-op and appends nothing.
	before := s.Metrics().WALAppends
	if err := s.Delete("idem-a"); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().WALAppends; got != before {
		t.Fatalf("no-op delete appended: %d -> %d", before, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay applies the tombstone: the key stays gone across a reopen.
	s2 := open(t, dir, 0)
	if _, ok := s2.Get("idem-a"); ok {
		t.Fatal("deleted key resurrected by replay")
	}
	if got, ok := s2.Get("idem-b"); !ok || string(got) != "resp-b" {
		t.Fatalf("surviving key: %q %v", got, ok)
	}
	// Compaction writes only live keys; the tombstone does not persist.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := open(t, dir, 0)
	defer s3.Close()
	rec := s3.Recovery()
	if rec.SnapshotRecords != 1 || rec.WALRecords != 0 {
		t.Fatalf("post-compaction recovery %+v, want 1 snapshot record", rec)
	}
	if _, ok := s3.Get("idem-a"); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
}

// TestTombstoneRecordBinaryRoundTrip pins the version-2 payload shape.
func TestTombstoneRecordBinaryRoundTrip(t *testing.T) {
	b, err := Record{Key: "k1", Tombstone: true}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tombVersion {
		t.Fatalf("tombstone version byte %d", b[0])
	}
	var r Record
	if err := r.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !r.Tombstone || r.Key != "k1" || r.Data != nil {
		t.Fatalf("round trip: %+v", r)
	}
	if _, err := (Record{Key: "k", Data: []byte("x"), Tombstone: true}).MarshalBinary(); err == nil {
		t.Fatal("tombstone with data must be rejected")
	}
	if err := new(Record).UnmarshalBinary(append(b, 'x')); err == nil {
		t.Fatal("tombstone payload with trailing data must be rejected")
	}
}

// walBytes frames recs the way Put and Delete append them to the WAL.
func walBytes(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		payload, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// replayRecords replays wal, decoding every intact frame into a Record.
func replayRecords(wal []byte) (recs []Record, valid int64, err error) {
	_, valid, err = replay(bytes.NewReader(wal), func(payload []byte) error {
		var r Record
		if err := r.UnmarshalBinary(payload); err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	return recs, valid, err
}

// FuzzStoreReplay feeds arbitrary bytes to WAL replay and the record
// decoder. Replay must not panic, must not claim more intact bytes than it
// read, and the records it returns, framed again, must replay to the same
// records.
func FuzzStoreReplay(f *testing.F) {
	wal := walBytes(f, []Record{
		{Key: "s-000001", Data: []byte(`{"state":"done"}`)},
		{Key: "s-000002", Data: []byte("x")},
		{Key: "s-000001", Tombstone: true},
	})
	f.Add(wal)
	f.Add(wal[:len(wal)-3]) // torn tail
	badCRC := bytes.Clone(wal)
	badCRC[len(badCRC)-1] ^= 0xff // the last frame's payload
	f.Add(badCRC)
	f.Fuzz(func(t *testing.T, wal []byte) {
		recs, valid, _ := replayRecords(wal)
		if valid < 0 || valid > int64(len(wal)) {
			t.Fatalf("valid = %d for %d input bytes", valid, len(wal))
		}
		reframed := walBytes(t, recs)
		again, valid2, err := replayRecords(reframed)
		if err != nil {
			t.Fatalf("replaying re-framed records: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-framed %d records, replayed %d", len(recs), len(again))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if a.Key != b.Key || a.Tombstone != b.Tombstone || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("record %d: %+v replayed as %+v", i, a, b)
			}
		}
		if valid2 != int64(len(reframed)) {
			t.Fatalf("re-framed WAL of %d bytes replayed %d intact", len(reframed), valid2)
		}
	})
}

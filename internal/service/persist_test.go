package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/game"
	"asyncmediator/internal/store"
	"asyncmediator/internal/telemetry"
)

// runSessions drives n sessions through the farm to completion. Only a
// one-worker farm finishes them in creation order; a test that takes
// ids[0] to be the first to finish (and so the first evicted) needs
// Workers: 1.
func runSessions(t *testing.T, svc *Service, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	sessions := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		sess, err := svc.CreateSession(Spec{N: 4, K: 1, T: 0, Variant: "4.2"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.ID)
		sessions = append(sessions, sess)
	}
	for _, sess := range sessions {
		<-sess.Done()
	}
	return ids
}

// TestServiceRestartRoundTrip is the acceptance test of the durability
// layer: a farm is stopped and a new one opened on the same data dir;
// every previously terminal session must be served by id lookup and by
// paginated listing, with no duplicate ids, and the id watermark must
// advance past everything the dead farm issued.
func TestServiceRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc := newFarm(t, Config{Workers: 2, DataDir: dir})
	ids := runSessions(t, svc, 6)
	// A session that never got types is live-only: it must not survive.
	ghost, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2 := newFarm(t, Config{Workers: 2, DataDir: dir})
	defer svc2.Close()
	for _, id := range ids {
		v, ok := svc2.Lookup(id)
		if !ok {
			t.Fatalf("session %s lost across restart", id)
		}
		if v.State != StateDone {
			t.Fatalf("session %s recovered in state %s", id, v.State)
		}
		if len(v.Profile) != 4 || v.MsgsSent == 0 {
			t.Fatalf("session %s recovered without its outcome: %+v", id, v)
		}
	}
	if _, ok := svc2.Lookup(ghost.ID); ok {
		t.Fatalf("non-terminal session %s must not survive a restart", ghost.ID)
	}

	total, page := svc2.ListSessions(string(StateDone), 0, 100)
	if total != 6 || len(page) != 6 {
		t.Fatalf("paginated listing: total=%d page=%d, want 6", total, len(page))
	}
	seen := make(map[string]bool)
	for _, v := range page {
		if seen[v.ID] {
			t.Fatalf("duplicate id %s in listing", v.ID)
		}
		seen[v.ID] = true
	}

	// Pagination slices consistently.
	_, first := svc2.ListSessions(string(StateDone), 0, 2)
	_, rest := svc2.ListSessions(string(StateDone), 2, 10)
	if len(first) != 2 || len(rest) != 4 {
		t.Fatalf("pages: %d + %d, want 2 + 4", len(first), len(rest))
	}
	if first[0].ID != ids[0] || rest[0].ID != ids[2] {
		t.Fatalf("page boundaries wrong: %s, %s", first[0].ID, rest[0].ID)
	}

	// The watermark advanced past the dead farm's ids — a new session never
	// reuses one (the ghost's id may be reissued: it was never served).
	fresh, err := svc2.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if fresh.ID == id {
			t.Fatalf("fresh session reuses persisted id %s", id)
		}
	}
}

// TestEvictionBoundsHotCache exercises the -max-live-sessions satellite:
// terminal sessions beyond the bound evict from memory, stay reachable
// through the store, and are counted in /stats.
func TestEvictionBoundsHotCache(t *testing.T) {
	dir := t.TempDir()
	svc := newFarm(t, Config{Workers: 1, DataDir: dir, MaxLiveSessions: 4})
	ids := runSessions(t, svc, 12)
	svc.pool.Close() // drain so every Spill ran

	if got := svc.reg.Len(); got > 4 {
		t.Fatalf("hot cache holds %d sessions, bound is 4", got)
	}
	stats := svc.Stats()
	if stats.SessionsEvicted < 8 {
		t.Fatalf("evicted %d, want >= 8", stats.SessionsEvicted)
	}
	if stats.SessionsCreated != 12 {
		t.Fatalf("created %d", stats.SessionsCreated)
	}
	// Every session — evicted or cached — is still served.
	for _, id := range ids {
		v, ok := svc.Lookup(id)
		if !ok || v.State != StateDone {
			t.Fatalf("session %s unreachable after eviction (%v)", id, ok)
		}
	}
	// Eviction means gone from the hot tier specifically.
	if _, ok := svc.Session(ids[0]); ok {
		t.Fatalf("oldest session %s still in the hot cache", ids[0])
	}
	total, _ := svc.ListSessions(string(StateDone), 0, 100)
	if total != 12 {
		t.Fatalf("listing sees %d sessions, want 12", total)
	}
	svc.Close()
}

// TestEvictionWithoutStoreDropsSessions documents the memory-only mode:
// -max-live-sessions still bounds memory, at the cost of losing evicted
// terminal sessions entirely.
func TestEvictionWithoutStoreDropsSessions(t *testing.T) {
	svc := newFarm(t, Config{Workers: 1, MaxLiveSessions: 2})
	ids := runSessions(t, svc, 6)
	svc.pool.Close()
	if got := svc.reg.Len(); got > 2 {
		t.Fatalf("hot cache holds %d sessions, bound is 2", got)
	}
	if _, ok := svc.Lookup(ids[0]); ok {
		t.Fatal("memory-only eviction should drop the session")
	}
	if svc.Stats().SessionsEvicted != 4 {
		t.Fatalf("evicted %d, want 4", svc.Stats().SessionsEvicted)
	}
	svc.Close()
}

// TestExperimentJobLifecycleAndRecovery drives the async experiment path:
// job creation, completion with a table, persistence across restart, and
// the interrupted-job rule (non-terminal persisted jobs come back failed).
func TestExperimentJobLifecycleAndRecovery(t *testing.T) {
	dir := t.TempDir()
	svc := newFarm(t, Config{Workers: 2, DataDir: dir})

	if _, err := svc.CreateExperiment(ExpRequest{Experiment: "e99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	job, err := svc.CreateExperiment(ExpRequest{Experiment: "e7", Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "x-000001" {
		t.Fatalf("job id %s", job.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job never finished")
	}
	v := job.Snapshot()
	if v.State != StateDone || v.Table == nil || v.Table.ID != "e7" {
		t.Fatalf("job snapshot %+v", v)
	}
	if v.Trials != 2 {
		t.Fatalf("options not applied: %+v", v)
	}
	svc.Close()

	// Plant an orphan: a job that was still queued when the daemon "died".
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	orphan := ExpView{ID: "x-000007", Experiment: "e1", State: StateQueued, Trials: 4}
	if err := st.Put(orphan.ID, parentRecord(t, orphan)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := newFarm(t, Config{Workers: 2, DataDir: dir})
	defer svc2.Close()
	// The completed job survived with its table.
	got, ok := svc2.LookupExperiment("x-000001")
	if !ok || got.State != StateDone || got.Table == nil {
		t.Fatalf("job lost across restart: %+v (%v)", got, ok)
	}
	// The orphan is honestly failed, not forever "queued".
	got, ok = svc2.LookupExperiment("x-000007")
	if !ok || got.State != StateFailed || got.Error == "" {
		t.Fatalf("orphan not failed: %+v (%v)", got, ok)
	}
	// The watermark cleared the orphan's id.
	job2, err := svc2.CreateExperiment(ExpRequest{Experiment: "e7", Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if job2.ID != "x-000008" {
		t.Fatalf("watermark ignored persisted jobs: %s", job2.ID)
	}
	<-job2.Done()
}

// TestExperimentJobSingleWorkerNoDeadlock pins the driver-goroutine
// design: a job must complete on a 1-worker farm. (Running the driver on
// a pool worker deadlocks — the engine shards the sweep onto the same
// pool the driver would be occupying.)
func TestExperimentJobSingleWorkerNoDeadlock(t *testing.T) {
	svc := newFarm(t, Config{Workers: 1})
	defer svc.Close()
	job, err := svc.CreateExperiment(ExpRequest{Experiment: "e7", Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("experiment job deadlocked on a single-worker farm")
	}
	if v := job.Snapshot(); v.State != StateDone || v.Table == nil {
		t.Fatalf("job %+v", v)
	}
}

// TestExperimentJobAdmissionControl saturates the driver budget: jobs
// beyond QueueDepth are rejected with ErrQueueFull and recorded failed.
func TestExperimentJobAdmissionControl(t *testing.T) {
	svc := newFarm(t, Config{Workers: 1, QueueDepth: 1})
	defer svc.Close()
	// Wedge the single worker so the first job's driver stays pending.
	block := make(chan struct{})
	started := make(chan struct{})
	if err := svc.pool.TrySubmit(func() { started <- struct{}{}; <-block }); err != nil {
		t.Fatal(err)
	}
	<-started
	job1, err := svc.CreateExperiment(ExpRequest{Experiment: "e7", Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateExperiment(ExpRequest{Experiment: "e7", Trials: 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	// The rejected job left an honest failed record.
	v, ok := svc.LookupExperiment("x-000002")
	if !ok || v.State != StateFailed {
		t.Fatalf("rejected job record: %+v (%v)", v, ok)
	}
	close(block)
	select {
	case <-job1.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job never drained after unblocking")
	}
}

// parentRecord renders v in the record format every daemon generation
// has written: the version byte 1, then json.Marshal(v).
func parentRecord(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{1}, b...)
}

// TestViewBinaryContract pins the durable record format: one record of
// each kind, written through the farm's own record tables, lands under
// s-%06d, x-%06d, tr-%08d or idem-<key> with the bytes 0x01 followed by
// json.Marshal of the record, so data directories of earlier daemons
// still read. A record of an unknown version, or an empty one, misses.
func TestViewBinaryContract(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sess := View{ID: "s-000009", State: StateDone, Seed: 7, Profile: []int{1, 0}}
	reg := NewRegistry(1, 0, 0, st)
	if err := reg.Persist(sess); err != nil {
		t.Fatal(err)
	}
	job := ExpView{ID: jobRecords(st).Key(3), Experiment: "e7", State: StateFailed, Trials: 2, Error: "boom"}
	if err := jobRecords(st).Put(job.ID, job); err != nil {
		t.Fatal(err)
	}
	ring, err := telemetry.OpenRetention(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := api.TraceSummary{Session: sess.ID, TraceID: "t-9", Variant: "Theorem4.2", State: "done", DurationMS: 1.5, FinishedUnixMS: 1792408389568, Spans: 1}
	trace := &api.TraceView{TraceID: "t-9", Spans: []api.TraceSpan{{Name: "ba", Origin: "local", StartUS: 3, EndUS: 8, Count: 4}}}
	if err := ring.Add(sum, trace); err != nil {
		t.Fatal(err)
	}
	idem := newIdemCache(4, st)
	idemKey := "POST /v1/sessions\x00key-9"
	e, _ := idem.begin(idemKey)
	idem.finish(idemKey, e, http.StatusCreated, "application/json", []byte(`{"id":"s-000009"}`), true)

	for _, c := range []struct {
		key string
		rec any
	}{
		{"s-000009", sess},
		{"x-000003", job},
		{"tr-00000001", telemetry.Record{Seq: 1, Summary: sum, Trace: trace}},
		{"idem-POST /v1/sessions\x00key-9", idemRecord{Status: http.StatusCreated, ContentType: "application/json", Body: []byte(`{"id":"s-000009"}`)}},
	} {
		got, ok := st.Get(c.key)
		if want := parentRecord(t, c.rec); !ok || !bytes.Equal(got, want) {
			t.Errorf("%q: stored %q (found %v), want %q", c.key, got, ok, want)
		}
	}
	if back, ok := reg.recs.Get(sess.ID); !ok || back.Seed != 7 || len(back.Profile) != 2 {
		t.Fatalf("round trip %+v (%v)", back, ok)
	}

	bad := parentRecord(t, View{ID: "s-000010", State: StateDone})
	bad[0] = 42
	for key, data := range map[string][]byte{"s-000010": bad, "s-000011": nil} {
		if err := st.Put(key, data); err != nil {
			t.Fatal(err)
		}
		if v, ok := reg.recs.Get(key); ok {
			t.Fatalf("%s: unreadable record served as %+v", key, v)
		}
	}
}

// TestUnreadableRecordsKept plants a record of an unknown version (42, as
// a newer daemon might write) under each record prefix and boots a farm
// on it. Boot succeeds, the record is never served, new session, job and
// trace numbers land past it, and recovery leaves it on disk. A keyed
// create whose stored response is unreadable executes again.
func TestUnreadableRecordsKept(t *testing.T) {
	const idemKey = "key-newer"
	for _, c := range []struct {
		key  string
		rec  any
		next string // a key the farm writes past the planted record
	}{
		{"s-000050", View{ID: "s-000050", State: StateDone}, "s-000051"},
		{"x-000050", ExpView{ID: "x-000050", Experiment: "e7", State: StateQueued}, "x-000051"},
		{"tr-00000050", telemetry.Record{Seq: 50, Summary: api.TraceSummary{Session: "s-000050"}, Trace: &api.TraceView{TraceID: "t-50"}}, "tr-00000051"},
		{"idem-POST /v1/sessions\x00" + idemKey, idemRecord{Status: http.StatusCreated, Body: []byte(`{"id":"s-000050"}`)}, ""},
	} {
		t.Run(c.key[:strings.IndexByte(c.key, '-')+1], func(t *testing.T) {
			dir := t.TempDir()
			bad := parentRecord(t, c.rec)
			bad[0] = 42
			st, err := store.Open(store.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(c.key, bad); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			svc, ts := httpFarm(t, Config{Workers: 1, DataDir: dir})
			client := ts.Client()
			if got, ok := svc.st.Get(c.key); !ok || !bytes.Equal(got, bad) {
				t.Fatalf("recovery removed or rewrote %q: %q (found %v)", c.key, got, ok)
			}
			for _, path := range []string{"/sessions/s-000050", "/jobs/x-000050", "/sessions/s-000050/trace"} {
				var env api.ErrorEnvelope
				code, err := getJSON(t, client, ts.URL+api.Prefix+path, &env)
				if err != nil || code != http.StatusNotFound || env.Error == nil || env.Error.Code != api.CodeNotFound {
					t.Fatalf("GET %s served the unreadable record: %d %+v (%v)", path, code, env.Error, err)
				}
			}
			var page api.SessionPage
			if code, err := getJSON(t, client, ts.URL+api.Prefix+"/sessions", &page); err != nil || code != http.StatusOK || page.Total != 0 {
				t.Fatalf("list served the unreadable record: %d %+v (%v)", code, page, err)
			}

			var h api.Handle
			resp := postKeyed(t, client, ts.URL+api.Prefix+"/sessions", idemKey, Spec{N: 4, K: 1, T: 0, Variant: "4.2"}, &h)
			if resp.StatusCode != http.StatusCreated || resp.Header.Get(api.IdempotencyReplayedHeader) != "" || h.ID == "s-000050" {
				t.Fatalf("keyed create replayed the unreadable response: %d replayed=%q id %s",
					resp.StatusCode, resp.Header.Get(api.IdempotencyReplayedHeader), h.ID)
			}
			if _, err := svc.SubmitTypes(h.ID, make([]game.Type, 4)); err != nil {
				t.Fatal(err)
			}
			var done View
			if code, err := getJSON(t, client, ts.URL+api.Prefix+"/sessions/"+h.ID+"?wait=30s", &done); err != nil || code != http.StatusOK || done.State != StateDone {
				t.Fatalf("session %s: %d %+v (%v)", h.ID, code, done.State, err)
			}
			job, err := svc.CreateExperiment(ExpRequest{Experiment: "e7", Trials: 1})
			if err != nil {
				t.Fatal(err)
			}
			<-job.Done()

			if c.next == "" {
				// The re-executed create now owns the key.
				if r, ok := idemRecords(svc.st).Get(c.key); !ok || !bytes.Contains(r.Body, []byte(h.ID)) {
					t.Fatalf("re-executed create not recorded under %q: %+v (%v)", c.key, r, ok)
				}
				return
			}
			if _, ok := svc.st.Get(c.next); !ok {
				t.Fatalf("no record at %s: new numbers did not land just past %s", c.next, c.key)
			}
			if got, ok := svc.st.Get(c.key); !ok || !bytes.Equal(got, bad) {
				t.Fatalf("%q removed or overwritten: %q (found %v)", c.key, got, ok)
			}
		})
	}
}

package telemetry

import (
	"fmt"
	"testing"

	"asyncmediator/api"
	"asyncmediator/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func addTrace(t *testing.T, r *Retention, i int, variant string, durMS float64, phases map[string]float64) {
	t.Helper()
	id := fmt.Sprintf("s-%06d", i)
	err := r.Add(api.TraceSummary{
		Session: id, TraceID: "t-" + id, Variant: variant,
		State: "done", DurationMS: durMS, FinishedUnixMS: int64(1000 + i), PhaseMS: phases,
	}, &api.TraceView{TraceID: "t-" + id, Spans: []api.TraceSpan{{Name: "run", EndUS: int64(durMS * 1000)}}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRetentionRingBound is the bound-assertion test: oldest records
// are evicted from memory AND the store once the count cap is crossed.
func TestRetentionRingBound(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	r, err := OpenRetention(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		addTrace(t, r, i, "4.1", float64(i), nil)
	}
	n, bytes, evicted := r.Stats()
	if n != 5 || evicted != 7 || bytes <= 0 {
		t.Fatalf("stats after overflow: n=%d bytes=%d evicted=%d", n, bytes, evicted)
	}
	if got := st.Count(traceKeyPrefix); got != 5 {
		t.Fatalf("store holds %d tr- records, want 5", got)
	}
	// The oldest seven are gone, the newest five remain.
	if _, ok := r.Trace("s-000007"); ok {
		t.Fatal("evicted trace still served")
	}
	if tv, ok := r.Trace("s-000012"); !ok || tv.TraceID != "t-s-000012" {
		t.Fatalf("newest trace missing: %v %v", tv, ok)
	}
	page, total, _ := r.Query(Filter{})
	if total != 5 || len(page) != 5 || page[0].Session != "s-000012" {
		t.Fatalf("query after eviction: total=%d page=%+v", total, page)
	}
}

// TestRetentionByteBound: a tiny byte cap evicts by encoded size.
func TestRetentionByteBound(t *testing.T) {
	r, err := OpenRetention(nil, MaxRecords)
	if err != nil {
		t.Fatal(err)
	}
	r.maxBytes = 1
	addTrace(t, r, 1, "4.1", 1, nil)
	if n, _, evicted := r.Stats(); n != 0 || evicted != 1 {
		t.Fatalf("byte bound did not evict: n=%d evicted=%d", n, evicted)
	}
}

// TestRetentionSurvivesReopen: the ring rebuilds from the store, same
// order, same queryability — the restart half of the trace-durability
// contract.
func TestRetentionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r, err := OpenRetention(st, MaxRecords)
	if err != nil {
		t.Fatal(err)
	}
	addTrace(t, r, 1, "4.1", 5, map[string]float64{"rbc": 2})
	addTrace(t, r, 2, "4.2", 50, map[string]float64{"rbc": 30})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	r2, err := OpenRetention(st2, MaxRecords)
	if err != nil {
		t.Fatal(err)
	}
	if tv, ok := r2.Trace("s-000001"); !ok || tv.TraceID != "t-s-000001" || len(tv.Spans) != 1 {
		t.Fatalf("reopened trace: %+v %v", tv, ok)
	}
	page, total, _ := r2.Query(Filter{})
	if total != 2 || page[0].Session != "s-000002" || page[1].Session != "s-000001" {
		t.Fatalf("reopened query: total=%d page=%+v", total, page)
	}
	// New records keep sequencing past the recovered tail.
	addTrace(t, r2, 3, "4.1", 7, nil)
	page, _, _ = r2.Query(Filter{Limit: 1})
	if page[0].Session != "s-000003" {
		t.Fatalf("post-reopen add not newest: %+v", page)
	}
}

// TestRetentionQueryFilters covers variant/phase/latency/since filters
// and cursor pagination.
func TestRetentionQueryFilters(t *testing.T) {
	r, err := OpenRetention(nil, MaxRecords)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		variant := "4.1"
		if i%2 == 0 {
			variant = "4.2"
		}
		addTrace(t, r, i, variant, float64(i*10), map[string]float64{"rbc": float64(i)})
	}

	if _, total, _ := r.Query(Filter{Variant: "4.2"}); total != 5 {
		t.Fatalf("variant filter total %d", total)
	}
	// Phase + MinMS filters on the phase's duration.
	page, total, _ := r.Query(Filter{Phase: "rbc", MinMS: 8})
	if total != 3 || page[0].Session != "s-000010" {
		t.Fatalf("phase filter: total=%d page=%+v", total, page)
	}
	if _, total, _ = r.Query(Filter{Phase: "nope"}); total != 0 {
		t.Fatalf("unknown phase matched %d", total)
	}
	// MinMS alone filters on end-to-end duration.
	if _, total, _ = r.Query(Filter{MinMS: 95}); total != 1 {
		t.Fatalf("min_ms filter total %d", total)
	}
	if _, total, _ = r.Query(Filter{Since: 1006}); total != 5 {
		t.Fatalf("since filter total %d", total)
	}

	// Cursor walk: pages of 3, newest first, no overlaps, no gaps.
	var seen []string
	cursor := int64(0)
	for {
		page, total, next := r.Query(Filter{Limit: 3, Cursor: cursor})
		if total != 10 {
			t.Fatalf("walk total %d", total)
		}
		for _, s := range page {
			seen = append(seen, s.Session)
		}
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(seen) != 10 || seen[0] != "s-000010" || seen[9] != "s-000001" {
		t.Fatalf("cursor walk saw %v", seen)
	}
}

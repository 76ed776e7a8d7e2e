package service

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/store"
)

// TestTraceSurvivesEvictionAndRestart is the retention tentpole's
// regression pair: a play's trace must stay fetchable through GET
// /v1/sessions/{id}/trace after the session evicts from the hot cache,
// and again after the daemon restarts on the same data dir — the two
// failure modes the pre-retention farm lost traces to.
func TestTraceSurvivesEvictionAndRestart(t *testing.T) {
	dir := t.TempDir()
	svc := newFarm(t, Config{Workers: 1, DataDir: dir, MaxLiveSessions: 1})
	ids := runSessions(t, svc, 4)
	svc.pool.Close() // drain so every spill and retention write ran

	victim := ids[0]
	if _, ok := svc.Session(victim); ok {
		t.Fatalf("session %s still in the hot cache; eviction never happened", victim)
	}
	ts := httptest.NewServer(svc.Handler())
	var tv api.TraceView
	code, err := getJSON(t, ts.Client(), ts.URL+api.Prefix+"/sessions/"+victim+"/trace", &tv)
	if err != nil || code != http.StatusOK {
		t.Fatalf("trace of evicted session: code %d err %v", code, err)
	}
	if tv.TraceID == "" || len(tv.Spans) == 0 {
		t.Fatalf("evicted session served an empty trace: %+v", tv)
	}
	// The spilled session record itself is lean: the trace lives on the
	// retention ring, not inside the store's session view.
	if v, ok := svc.Lookup(victim); !ok || v.Trace != nil {
		t.Fatalf("spilled record should not embed the trace (ok=%v)", ok)
	}
	ts.Close()
	svc.Close()

	svc2 := newFarm(t, Config{Workers: 2, DataDir: dir, MaxLiveSessions: 1})
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	var tv2 api.TraceView
	code, err = getJSON(t, ts2.Client(), ts2.URL+api.Prefix+"/sessions/"+victim+"/trace", &tv2)
	if err != nil || code != http.StatusOK {
		t.Fatalf("trace after restart: code %d err %v", code, err)
	}
	if tv2.TraceID != tv.TraceID || len(tv2.Spans) != len(tv.Spans) {
		t.Fatalf("restart changed the trace: %s/%d spans, want %s/%d",
			tv2.TraceID, len(tv2.Spans), tv.TraceID, len(tv.Spans))
	}
	// The search surface recovered too.
	var page api.TracePage
	code, err = getJSON(t, ts2.Client(), ts2.URL+api.Prefix+"/traces", &page)
	if err != nil || code != http.StatusOK {
		t.Fatalf("traces after restart: code %d err %v", code, err)
	}
	if page.Total != 4 {
		t.Fatalf("restarted ring holds %d traces, want 4", page.Total)
	}
}

// TestTracesEndpointFiltersAndPaginates drives GET /v1/traces over HTTP:
// variant and phase filters, the latency floor, cursor pagination with
// no overlap or gaps, and parameter validation.
func TestTracesEndpointFiltersAndPaginates(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 2})
	hc := ts.Client()
	var sessions []*Session
	for i := 0; i < 6; i++ {
		variant := "4.1"
		n := 5
		if i%2 == 1 {
			variant = "4.2"
			n = 4
		}
		spec := Spec{N: n, T: 0, K: 1, Variant: variant}
		if variant == "4.1" {
			spec = Spec{N: n, T: 1, Variant: variant}
		}
		sess, err := svc.CreateSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, n)); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	for _, sess := range sessions {
		<-sess.Done()
	}
	waitUntil(t, 10*time.Second, "all traces retained", func() bool {
		n, _, _ := svc.traces.Stats()
		return n == 6
	})

	// The retained variant is the canonical theorem label the views and
	// metrics use ("Theorem4.2"), not the spec shorthand.
	base := ts.URL + api.Prefix + "/traces"
	var page api.TracePage
	if code, err := getJSON(t, hc, base+"?variant=Theorem4.2", &page); err != nil || code != http.StatusOK {
		t.Fatalf("variant filter: code %d err %v", code, err)
	}
	if page.Total != 3 || len(page.Traces) != 3 {
		t.Fatalf("variant=Theorem4.2 matched %d/%d, want 3/3", len(page.Traces), page.Total)
	}
	for _, tr := range page.Traces {
		if tr.Variant != "Theorem4.2" {
			t.Fatalf("variant filter leaked %+v", tr)
		}
	}

	// Cursor pagination: two pages of 2 plus one of 2, newest first, no
	// overlap, covering all six.
	seen := map[string]bool{}
	url, pages := base+"?limit=2", 0
	var lastFinished int64 = 1 << 62
	for {
		var p api.TracePage
		if code, err := getJSON(t, hc, url, &p); err != nil || code != http.StatusOK {
			t.Fatalf("page %d: code %d err %v", pages, code, err)
		}
		if p.Total != 6 {
			t.Fatalf("page %d total %d, want 6", pages, p.Total)
		}
		for _, tr := range p.Traces {
			if seen[tr.Session] {
				t.Fatalf("session %s served on two pages", tr.Session)
			}
			seen[tr.Session] = true
			if tr.FinishedUnixMS > lastFinished {
				t.Fatalf("pages not newest-first: %d after %d", tr.FinishedUnixMS, lastFinished)
			}
			if tr.FinishedUnixMS < lastFinished {
				lastFinished = tr.FinishedUnixMS
			}
		}
		pages++
		if p.NextCursor == 0 {
			break
		}
		url = base + "?limit=2&cursor=" + strconv.FormatInt(p.NextCursor, 10)
	}
	if len(seen) != 6 || pages != 3 {
		t.Fatalf("pagination covered %d sessions over %d pages, want 6 over 3", len(seen), pages)
	}

	// Phase filter: pick a phase the newest trace actually has and ask
	// for traces that spent at least that long in it.
	if code, err := getJSON(t, hc, base, &page); err != nil || code != http.StatusOK {
		t.Fatal(code, err)
	}
	var phase string
	for name := range page.Traces[0].PhaseMS {
		phase = name
		break
	}
	if phase == "" {
		t.Fatalf("newest trace has no phase digest: %+v", page.Traces[0])
	}
	if code, err := getJSON(t, hc, base+"?phase="+phase, &page); err != nil || code != http.StatusOK {
		t.Fatal(code, err)
	}
	if page.Total == 0 {
		t.Fatalf("phase=%s matched nothing", phase)
	}
	for _, tr := range page.Traces {
		if _, ok := tr.PhaseMS[phase]; !ok {
			t.Fatalf("phase filter leaked a trace without %s: %+v", phase, tr)
		}
	}
	// An absurd latency floor matches nothing but is not an error.
	if code, err := getJSON(t, hc, base+"?min_ms=1000000000", &page); err != nil || code != http.StatusOK {
		t.Fatal(code, err)
	}
	if page.Total != 0 || len(page.Traces) != 0 {
		t.Fatalf("min_ms floor leaked %d traces", page.Total)
	}
	// Bad parameters are invalid_argument, not silently ignored.
	var apiErr struct {
		Error *api.Error `json:"error"`
	}
	if code, err := getJSON(t, hc, base+"?min_ms=banana", &apiErr); err != nil || code != http.StatusBadRequest {
		t.Fatalf("bad min_ms: code %d err %v", code, err)
	}
	if apiErr.Error == nil || apiErr.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("bad min_ms error %+v", apiErr.Error)
	}
}

// TestLegacyEmbeddedTraceServed: daemons of an earlier generation run
// with trace retention disabled stored each play's trace inside its
// session record, not on the ring. A farm reopened on such a data
// directory still serves that trace from GET /v1/sessions/{id}/trace.
func TestLegacyEmbeddedTraceServed(t *testing.T) {
	mem := newFarm(t, Config{Workers: 1})
	sess, err := mem.CreateSession(Spec{N: 4, K: 1, T: 0, Variant: "4.2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	legacy := sess.Snapshot()
	mem.Close()
	if legacy.Trace == nil || len(legacy.Trace.Spans) == 0 {
		t.Fatalf("play left no trace to embed: %+v", legacy.Trace)
	}

	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(legacy.ID, parentRecord(t, legacy)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc, ts := httpFarm(t, Config{Workers: 1, DataDir: dir})
	if _, ok := svc.traces.Trace(legacy.ID); ok {
		t.Fatalf("the ring holds %s; the test would not reach the embedded trace", legacy.ID)
	}
	var tv api.TraceView
	code, err := getJSON(t, ts.Client(), ts.URL+api.Prefix+"/sessions/"+legacy.ID+"/trace", &tv)
	if err != nil || code != http.StatusOK {
		t.Fatalf("embedded trace: code %d err %v", code, err)
	}
	if tv.TraceID != legacy.Trace.TraceID || len(tv.Spans) != len(legacy.Trace.Spans) {
		t.Fatalf("served %s/%d spans, want the embedded %s/%d",
			tv.TraceID, len(tv.Spans), legacy.Trace.TraceID, len(legacy.Trace.Spans))
	}
}

// TestRetentionBoundEvictsOldest asserts the ring's count bound at the
// service layer: the oldest retained traces leave, the newest stay, and
// the eviction counter advances.
func TestRetentionBoundEvictsOldest(t *testing.T) {
	saved := traceRingRecords
	traceRingRecords = 4
	t.Cleanup(func() { traceRingRecords = saved })
	svc := newFarm(t, Config{Workers: 1})
	defer svc.Close()
	ids := runSessions(t, svc, 8)
	svc.pool.Close()

	n, bytes, evicted := svc.traces.Stats()
	if n != 4 || evicted != 4 {
		t.Fatalf("ring holds %d with %d evicted, want 4/4", n, evicted)
	}
	if bytes <= 0 {
		t.Fatalf("ring reports %d bytes", bytes)
	}
	if _, ok := svc.traces.Trace(ids[0]); ok {
		t.Fatalf("oldest trace %s survived a full ring", ids[0])
	}
	if _, ok := svc.traces.Trace(ids[len(ids)-1]); !ok {
		t.Fatalf("newest trace %s missing", ids[len(ids)-1])
	}
}

// TestSLOUnknownPhaseRefused: a phase objective whose selector names no
// trace phase ("rbc" was retired with reliable broadcast; no envelope
// ever classified as "acs.core"; "avss.share", "mpc.mul", "mpc.open" and
// "proto" were the instance-id phases before classification by message
// body) would never get a sample, so New refuses it; every phase a trace
// records is accepted.
func TestSLOUnknownPhaseRefused(t *testing.T) {
	for _, spec := range []string{"phase:rbc:p99:1s", "phase:acs.core:p99:1s", "phase:mpc.mask:p99:1s", "phase:run:p99:1s",
		"phase:avss.share:p99:1s", "phase:mpc.mul:p99:1s", "phase:mpc.open:p99:1s", "phase:proto:p99:1s"} {
		if svc, err := New(Config{SLOObjectives: []string{spec}}); err == nil {
			svc.Close()
			t.Errorf("New accepted %q", spec)
		} else if !strings.Contains(err.Error(), "no phase") {
			t.Errorf("%q: error %v, want a no-phase refusal", spec, err)
		}
	}
	for _, phase := range core.Phases {
		svc, err := New(Config{SLOObjectives: []string{"phase:" + phase + ":p99:1s"}})
		if err != nil {
			t.Fatalf("phase %q refused: %v", phase, err)
		}
		svc.Close()
	}
}

// TestSLOUnknownVariantRefused: plays are sampled under the variant's
// String(), so "variant:4.1" would never match; New refuses it and every
// variant name a play carries is accepted.
func TestSLOUnknownVariantRefused(t *testing.T) {
	for _, spec := range []string{"variant:4.1:p95:1s", "variant:Theorem4.3:p95:1s", "variant:theorem4.1:p95:1s"} {
		if svc, err := New(Config{SLOObjectives: []string{spec}}); err == nil {
			svc.Close()
			t.Errorf("New accepted %q", spec)
		} else if !strings.Contains(err.Error(), "no variant") {
			t.Errorf("%q: error %v, want a no-variant refusal", spec, err)
		}
	}
	for _, v := range []core.Variant{core.Exact41, core.Epsilon42, core.Punish44, core.Punish45} {
		svc, err := New(Config{SLOObjectives: []string{"variant:" + v.String() + ":p95:1s"}})
		if err != nil {
			t.Fatalf("variant %v refused: %v", v, err)
		}
		svc.Close()
	}
}

// TestSLOBurnAlertFiresWithExemplar runs plays against an impossible
// latency objective and asserts the edge-triggered alert.slo_burn
// arrives on the event bus carrying an exemplar that names a retained
// trace — the alert-to-artifact link the SLO engine exists for.
func TestSLOBurnAlertFiresWithExemplar(t *testing.T) {
	svc := newFarm(t, Config{
		Workers:       2,
		SLOObjectives: []string{"variant:Theorem4.2:p50:1ns"},
		SLOInterval:   20 * time.Millisecond,
	})
	defer svc.Close()

	sub := svc.bus.Subscribe(256)
	defer sub.Cancel()

	runSessions(t, svc, 2)

	var alert api.FleetAlert
	deadline := time.After(15 * time.Second)
	for alert.Rule == "" {
		select {
		case e, ok := <-sub.C:
			if !ok {
				t.Fatal("bus closed before the burn alert")
			}
			if e.Kind != api.KindFleet || e.State != "alert.slo_burn" {
				continue
			}
			a, ok := e.Data.(api.FleetAlert)
			if !ok {
				t.Fatalf("slo_burn event carries no FleetAlert payload: %+v", e)
			}
			if e.ID != "variant:Theorem4.2:p50:1ns" {
				t.Fatalf("alert subject %q, want the objective spec", e.ID)
			}
			alert = a
		case <-deadline:
			t.Fatal("alert.slo_burn never fired")
		}
	}
	if alert.Rule != "slo_burn" || alert.Value < 1 {
		t.Fatalf("alert %+v", alert)
	}
	if alert.Session == "" || alert.TraceID == "" {
		t.Fatalf("alert carries no exemplar: %+v", alert)
	}
	// The exemplar is not just a name: its trace is retained and
	// fetchable.
	tv, ok := svc.traces.Trace(alert.Session)
	if !ok || tv.TraceID != alert.TraceID {
		t.Fatalf("exemplar %s/%s not retained (ok=%v)", alert.Session, alert.TraceID, ok)
	}

	// The served view agrees: the objective is firing with a retained
	// exemplar. (Not necessarily the alert's exemplar — every breaching
	// play overwrites it, and with two workers either play may finish
	// last.)
	v, ok := svc.SLOView()
	if !ok || len(v.Objectives) != 1 {
		t.Fatalf("slo view %+v ok=%v", v, ok)
	}
	o := v.Objectives[0]
	if !o.Firing || o.ExemplarSession == "" || o.Samples < 2 {
		t.Fatalf("objective view %+v", o)
	}
	if _, ok := svc.traces.Trace(o.ExemplarSession); !ok {
		t.Fatalf("view exemplar %s not retained", o.ExemplarSession)
	}

	// Recovery: with no fresh samples the windows drain and the clear
	// edge follows.
	deadline = time.After(15 * time.Second)
	for {
		select {
		case e, ok := <-sub.C:
			if !ok {
				t.Fatal("bus closed before the clear")
			}
			if e.Kind == api.KindFleet && e.State == "clear.slo_burn" {
				return
			}
		case <-deadline:
			t.Fatal("clear.slo_burn never followed")
		}
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

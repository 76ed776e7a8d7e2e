package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"asyncmediator/api"
)

// sseEvent is one parsed server-sent event frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses frames off an event-stream body until fn returns true or
// the deadline passes.
func readSSE(t *testing.T, body *bufio.Scanner, deadline time.Time, fn func(sseEvent) bool) {
	t.Helper()
	var cur sseEvent
	for body.Scan() {
		if time.Now().After(deadline) {
			t.Fatal("SSE deadline exceeded")
		}
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" && fn(cur) {
				return
			}
			cur = sseEvent{}
		}
	}
	t.Fatalf("SSE stream ended early: %v", body.Err())
}

// TestSSEDeliversTerminalEvent is the acceptance test of the event
// stream: a client subscribed before a session completes receives its
// terminal event, snapshot included, without polling.
func TestSSEDeliversTerminalEvent(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 2})
	client := ts.Client()

	var created api.Handle
	if code, err := postJSON(t, client, ts.URL+"/v1/sessions", Spec{}, &created); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}

	resp, err := client.Get(ts.URL + "/v1/events?session=" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	deadline := time.Now().Add(30 * time.Second)

	// The hello frame proves the subscription is live before we submit.
	readSSE(t, scanner, deadline, func(e sseEvent) bool { return e.name == "hello" })

	if code, err := postJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types",
		api.TypesRequest{Types: make([]int, 5)}, nil); err != nil || code != http.StatusAccepted {
		t.Fatalf("types: %d %v", code, err)
	}

	var terminal api.Event
	var lastSeq int64
	readSSE(t, scanner, deadline, func(e sseEvent) bool {
		if e.name != "session" {
			return false
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", e.data, err)
		}
		if ev.ID != created.ID {
			t.Fatalf("filter leaked event for %s", ev.ID)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not monotone: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Terminal {
			terminal = ev
			return true
		}
		return false
	})
	if terminal.State != StateDone {
		t.Fatalf("terminal state %s", terminal.State)
	}
	// The terminal event carries the snapshot: no follow-up GET needed.
	v, ok := terminal.Session()
	if !ok {
		t.Fatalf("terminal event carries no session view: %+v", terminal)
	}
	if v.ID != created.ID || len(v.Profile) != 5 {
		t.Fatalf("terminal snapshot %+v", v)
	}
	_ = svc
}

// TestLongPollWaitsForTerminal asserts one GET with ?wait= returns the
// terminal snapshot without a client poll loop.
func TestLongPollWaitsForTerminal(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 2})
	client := ts.Client()

	var created api.Handle
	if code, err := postJSON(t, client, ts.URL+"/v1/sessions", Spec{}, &created); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	if code, err := postJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types",
		api.TypesRequest{Types: make([]int, 5)}, nil); err != nil || code != http.StatusAccepted {
		t.Fatalf("types: %d %v", code, err)
	}
	var v View
	if code, err := getJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"?wait=30s", &v); err != nil || code != http.StatusOK {
		t.Fatalf("long poll: %d %v", code, err)
	}
	if v.State != StateDone {
		t.Fatalf("long poll returned non-terminal state %s", v.State)
	}
	// Malformed wait is rejected.
	var e api.ErrorEnvelope
	if code, _ := getJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"?wait=soon", &e); code != http.StatusBadRequest {
		t.Fatalf("bad wait: %d", code)
	}
}

// TestHTTPSessionPagination walks GET /sessions pages over a mixed
// memory/store population.
func TestHTTPSessionPagination(t *testing.T) {
	dir := t.TempDir()
	svc, ts := httpFarm(t, Config{Workers: 2, DataDir: dir, MaxLiveSessions: 3})
	client := ts.Client()

	runSessions(t, svc, 9)
	svc.pool.Close() // every terminal session spilled

	var page api.SessionPage
	if code, err := getJSON(t, client, ts.URL+"/v1/sessions?state=done&offset=0&limit=4", &page); err != nil || code != http.StatusOK {
		t.Fatalf("page 1: %d %v", code, err)
	}
	if page.Total != 9 || len(page.Sessions) != 4 {
		t.Fatalf("page 1: total=%d len=%d", page.Total, len(page.Sessions))
	}
	var all []string
	for offset := 0; offset < page.Total; offset += 4 {
		var p api.SessionPage
		url := fmt.Sprintf("%s/v1/sessions?state=done&offset=%d&limit=4", ts.URL, offset)
		if code, err := getJSON(t, client, url, &p); err != nil || code != http.StatusOK {
			t.Fatalf("offset %d: %d %v", offset, code, err)
		}
		for _, v := range p.Sessions {
			all = append(all, v.ID)
		}
	}
	if len(all) != 9 {
		t.Fatalf("walked %d sessions", len(all))
	}
	seen := map[string]bool{}
	for i, id := range all {
		if seen[id] {
			t.Fatalf("duplicate %s while paging", id)
		}
		seen[id] = true
		if want := fmt.Sprintf("s-%06d", i+1); id != want {
			t.Fatalf("page order: got %s at %d, want %s", id, i, want)
		}
	}
	// Filters validate.
	var e api.ErrorEnvelope
	if code, _ := getJSON(t, client, ts.URL+"/v1/sessions?state=sideways", &e); code != http.StatusBadRequest {
		t.Fatalf("bad state filter: %d", code)
	}
	if code, _ := getJSON(t, client, ts.URL+"/v1/sessions?offset=-1", &e); code != http.StatusBadRequest {
		t.Fatalf("bad offset: %d", code)
	}
	// Unfiltered listing works too.
	var full api.SessionPage
	if code, err := getJSON(t, client, ts.URL+"/v1/sessions", &full); err != nil || code != http.StatusOK || full.Total != 9 {
		t.Fatalf("unfiltered: %d %v total=%d", code, err, full.Total)
	}
}

// TestHTTPAsyncExperiments drives POST /v1/jobs end to end: create,
// long-poll to terminal, fetch the table; plus the error paths.
func TestHTTPAsyncExperiments(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 2})
	client := ts.Client()

	var created api.Handle
	code, err := postJSON(t, client, ts.URL+"/v1/jobs", ExpRequest{Experiment: "e7", Trials: 2}, &created)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("create job: %d %v", code, err)
	}
	if !strings.HasPrefix(created.ID, "x-") {
		t.Fatalf("job id %q", created.ID)
	}
	var v ExpView
	if code, err := getJSON(t, client, ts.URL+"/v1/jobs/"+created.ID+"?wait=30s", &v); err != nil || code != http.StatusOK {
		t.Fatalf("poll job: %d %v", code, err)
	}
	if v.State != StateDone || v.Table == nil || v.Table.ID != "e7" || len(v.Table.Rows) == 0 {
		t.Fatalf("job view %+v", v)
	}

	var e api.ErrorEnvelope
	if code, _ := postJSON(t, client, ts.URL+"/v1/jobs", ExpRequest{Experiment: "nope"}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown experiment: %d", code)
	}
	if code, _ := getJSON(t, client, ts.URL+"/v1/jobs/x-424242", &e); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
}

// TestMetricsEndpoint asserts the Prometheus exposition renders the
// counters, the per-variant duration histogram and the per-phase
// latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 2})
	client := ts.Client()
	runSessions(t, svc, 3)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		body := sb.String()
		if strings.Contains(body, "mediatord_sessions_completed_total 3") &&
			strings.Contains(body, `mediatord_session_duration_seconds_bucket{variant="4.2",le="+Inf"} 3`) &&
			strings.Contains(body, `mediatord_session_duration_seconds_count{variant="4.2"} 3`) &&
			strings.Contains(body, "mediatord_pool_workers 2") &&
			// Traced plays fold their spans into one histogram per phase.
			strings.Contains(body, `mediatord_play_phase_seconds_bucket{phase="ba",`) &&
			// The fleet-observability registry: cluster link, worker pool,
			// and durable-store series are present (zero on an idle,
			// memory-only farm) with the expected names.
			strings.Contains(body, "mediatord_cluster_link_redials_total 0") &&
			strings.Contains(body, "mediatord_cluster_link_resends_total 0") &&
			strings.Contains(body, "mediatord_pool_jobs_completed_total 3") &&
			strings.Contains(body, "mediatord_store_wal_appends_total 0") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never settled:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return sb.String()
}

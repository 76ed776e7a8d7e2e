package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"asyncmediator/api"
)

// getEnvelope GETs a URL and decodes the error envelope, returning the
// status and the api error.
func getEnvelope(t *testing.T, client *http.Client, url string) (int, *api.Error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("GET %s: undecodable envelope: %v", url, err)
	}
	if env.Error == nil {
		t.Fatalf("GET %s: envelope without error body", url)
	}
	return resp.StatusCode, env.Error
}

// postEnvelope POSTs a raw body and decodes the error envelope.
func postEnvelope(t *testing.T, client *http.Client, url, body string) (int, *api.Error) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("POST %s: undecodable envelope: %v", url, err)
	}
	if env.Error == nil {
		t.Fatalf("POST %s: envelope without error body", url)
	}
	return resp.StatusCode, env.Error
}

// expectCode asserts one (status, code) pair and that the status matches
// the code's own mapping.
func expectCode(t *testing.T, status int, e *api.Error, want api.ErrorCode) {
	t.Helper()
	if e.Code != want {
		t.Fatalf("code %q (message %q), want %q", e.Code, e.Message, want)
	}
	if status != want.HTTPStatus() {
		t.Fatalf("status %d for %s, want %d", status, want, want.HTTPStatus())
	}
	if e.Message == "" {
		t.Fatalf("empty message for %s", want)
	}
}

// TestV1ErrorContract reaches every api error code through a real /v1
// handler: the envelope shape and the code-to-status mapping are the
// contract later clients (pkg/client, other daemons) switch on.
func TestV1ErrorContract(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 1, QueueDepth: 1})
	client := ts.Client()

	// invalid_argument: malformed body, unknown field, trailing garbage,
	// oversized body, bad spec, bad query parameter.
	status, e := postEnvelope(t, client, ts.URL+"/v1/sessions", `{`)
	expectCode(t, status, e, api.CodeInvalidArgument)
	status, e = postEnvelope(t, client, ts.URL+"/v1/sessions", `{"bogus":1}`)
	expectCode(t, status, e, api.CodeInvalidArgument)
	status, e = postEnvelope(t, client, ts.URL+"/v1/sessions", `{"n":5}{"n":5}`)
	expectCode(t, status, e, api.CodeInvalidArgument)
	big := fmt.Sprintf(`{"game":"%s"}`, strings.Repeat("x", api.MaxBodyBytes))
	status, e = postEnvelope(t, client, ts.URL+"/v1/sessions", big)
	expectCode(t, status, e, api.CodeInvalidArgument)
	if e.Details["limit_bytes"] == "" {
		t.Fatalf("oversize rejection lacks limit detail: %+v", e)
	}
	status, e = postEnvelope(t, client, ts.URL+"/v1/sessions", `{"game":"poker"}`)
	expectCode(t, status, e, api.CodeInvalidArgument)
	status, e = getEnvelope(t, client, ts.URL+"/v1/sessions/s-000001?wait=soon")
	expectCode(t, status, e, api.CodeInvalidArgument)
	if e.Details["param"] != "wait" {
		t.Fatalf("wait rejection lacks param detail: %+v", e)
	}

	// not_found: sessions, jobs, and catalog names each answer on their
	// own /v1 route.
	status, e = getEnvelope(t, client, ts.URL+"/v1/sessions/s-424242")
	expectCode(t, status, e, api.CodeNotFound)
	status, e = getEnvelope(t, client, ts.URL+"/v1/jobs/x-424242")
	expectCode(t, status, e, api.CodeNotFound)
	status, e = getEnvelope(t, client, ts.URL+"/v1/experiments/e99")
	expectCode(t, status, e, api.CodeNotFound)

	// conflict: a second type submission is legal JSON but illegal in the
	// session's lifecycle state.
	var created api.Handle
	if code, err := postJSON(t, client, ts.URL+"/v1/sessions", Spec{}, &created); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	if code, err := postJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types",
		api.TypesRequest{Types: make([]int, 5)}, nil); err != nil || code != http.StatusAccepted {
		t.Fatalf("types: %d %v", code, err)
	}
	status, e = postEnvelope(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types", `{"types":[0,0,0,0,0]}`)
	expectCode(t, status, e, api.CodeConflict)

	// pool_saturated: fill the single worker and the depth-1 queue with
	// blocking jobs, then submit types — the rejection must carry the
	// backpressure code and roll the session back so a retry can succeed.
	var sess2 api.Handle
	if code, err := postJSON(t, client, ts.URL+"/v1/sessions", Spec{}, &sess2); err != nil || code != http.StatusCreated {
		t.Fatalf("create 2: %d %v", code, err)
	}
	// Session 1's play owns the single worker until it is terminal, and
	// the worker must be inside the first blocker before the second can
	// take the queue slot — wait on both rather than race them. The
	// blockers are released in a cleanup, so a failure below cannot leave
	// them wedged under the farm's drain.
	var first View
	if code, err := getJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"?wait=30s", &first); err != nil || code != http.StatusOK || !first.State.Terminal() {
		t.Fatalf("session 1 not terminal: %d %v %s", code, err, first.State)
	}
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before httpFarm's svc.Close
	started := make(chan struct{})
	if err := svc.pool.Submit(func() { close(started); <-release }); err != nil {
		t.Fatalf("block worker: %v", err)
	}
	<-started // 1 running
	if err := svc.pool.TrySubmit(func() { <-release }); err != nil {
		t.Fatalf("fill queue: %v", err) // + 1 queued = saturated
	}
	status, e = postEnvelope(t, client, ts.URL+"/v1/sessions/"+sess2.ID+"/types", `{"types":[0,0,0,0,0]}`)
	expectCode(t, status, e, api.CodePoolSaturated)
	unblock()
	// The rejected submission rolled back: the retry is accepted.
	deadlineRetry := func() int {
		for i := 0; i < 100; i++ {
			code, err := postJSON(t, client, ts.URL+"/v1/sessions/"+sess2.ID+"/types",
				api.TypesRequest{Types: make([]int, 5)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if code != http.StatusServiceUnavailable {
				return code
			}
		}
		return http.StatusServiceUnavailable
	}
	if code := deadlineRetry(); code != http.StatusAccepted {
		t.Fatalf("retry after backoff: %d", code)
	}

	// internal: a handler panic is recovered by the middleware into the
	// internal envelope (and the connection survives).
	rec := httptest.NewRecorder()
	h := withMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), nil)
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var env api.ErrorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("panic envelope: %v %+v", err, env)
	}
	expectCode(t, rec.Code, env.Error, api.CodeInternal)
}

// TestV1NotReadyAfterDrain covers the not_ready code and the /readyz
// probe: once shutdown begins, submissions answer not_ready and readyz
// flips 503 so a load balancer stops routing here.
func TestV1NotReadyAfterDrain(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 1})
	client := ts.Client()

	var rd api.Readiness
	if code, err := getJSON(t, client, ts.URL+"/readyz", &rd); err != nil || code != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz while serving: %d %v %+v", code, err, rd)
	}
	var created api.Handle
	if code, err := postJSON(t, client, ts.URL+"/v1/sessions", Spec{}, &created); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}

	svc.beginShutdown()
	svc.pool.Close()
	if code, err := getJSON(t, client, ts.URL+"/readyz", &rd); err != nil || code != http.StatusServiceUnavailable || rd.Ready || rd.Reason == "" {
		t.Fatalf("readyz while draining: %d %v %+v", code, err, rd)
	}
	status, e := postEnvelope(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types", `{"types":[0,0,0,0,0]}`)
	expectCode(t, status, e, api.CodeNotReady)
}

// TestV1PaginationEdges pins the paging contract: cursor presence,
// offset beyond total, limit=0, and unknown state all answer with
// well-formed bodies.
func TestV1PaginationEdges(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 2})
	client := ts.Client()
	runSessions(t, svc, 5)

	// A middle page carries the next_offset cursor; the final page does
	// not.
	var page api.SessionPage
	if code, err := getJSON(t, client, ts.URL+"/v1/sessions?offset=0&limit=2", &page); err != nil || code != http.StatusOK {
		t.Fatalf("page 1: %d %v", code, err)
	}
	if page.Total != 5 || page.NextOffset == nil || *page.NextOffset != 2 {
		t.Fatalf("page 1 cursor: %+v", page.PageInfo)
	}
	var final api.SessionPage
	if code, err := getJSON(t, client, ts.URL+"/v1/sessions?offset=4&limit=2", &final); err != nil || code != http.StatusOK {
		t.Fatalf("final page: %d %v", code, err)
	}
	if len(final.Sessions) != 1 || final.NextOffset != nil {
		t.Fatalf("final page: %d sessions cursor %v", len(final.Sessions), final.NextOffset)
	}

	// Offset beyond total: an empty page, not an error.
	var beyond api.SessionPage
	if code, err := getJSON(t, client, ts.URL+"/v1/sessions?offset=99&limit=2", &beyond); err != nil || code != http.StatusOK {
		t.Fatalf("beyond total: %d %v", code, err)
	}
	if beyond.Total != 5 || len(beyond.Sessions) != 0 || beyond.NextOffset != nil || beyond.Offset != 99 {
		t.Fatalf("beyond-total page: %+v", beyond.PageInfo)
	}

	// limit=0 and negative offsets are invalid_argument envelopes.
	status, e := getEnvelope(t, client, ts.URL+"/v1/sessions?limit=0")
	expectCode(t, status, e, api.CodeInvalidArgument)
	if e.Details["param"] != "limit" {
		t.Fatalf("limit rejection detail %+v", e.Details)
	}
	status, e = getEnvelope(t, client, ts.URL+"/v1/sessions?offset=-1")
	expectCode(t, status, e, api.CodeInvalidArgument)

	// Unknown state filter.
	status, e = getEnvelope(t, client, ts.URL+"/v1/sessions?state=sideways")
	expectCode(t, status, e, api.CodeInvalidArgument)
	if e.Details["param"] != "state" {
		t.Fatalf("state rejection detail %+v", e.Details)
	}
}

// TestV1RouteSplitAndAliases asserts the experiment dual-mode split (a
// catalog name runs synchronously on /v1/experiments/{name}; an async id
// answers on /v1/jobs/{id} only) and that every legacy unversioned route
// still serves the same body flagged as deprecated.
func TestV1RouteSplitAndAliases(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 2})
	client := ts.Client()

	// /v1/experiments/{name}: synchronous table.
	var tab api.Table
	if code, err := getJSON(t, client, ts.URL+"/v1/experiments/e8?trials=2&seed=5", &tab); err != nil || code != http.StatusOK {
		t.Fatalf("sync run: %d %v", code, err)
	}
	if tab.ID != "e8" || len(tab.Rows) == 0 {
		t.Fatalf("sync table %+v", tab)
	}
	// A job id on the sync route is not_found — ids no longer share the
	// catalog namespace.
	status, e := getEnvelope(t, client, ts.URL+"/v1/experiments/x-000001")
	expectCode(t, status, e, api.CodeNotFound)

	// /v1/jobs: create, long-poll, fetch.
	var created api.Handle
	if code, err := postJSON(t, client, ts.URL+"/v1/jobs", ExpRequest{Experiment: "e8", Trials: 2}, &created); err != nil || code != http.StatusCreated {
		t.Fatalf("create job: %d %v", code, err)
	}
	var jv ExpView
	if code, err := getJSON(t, client, ts.URL+"/v1/jobs/"+created.ID+"?wait=30s", &jv); err != nil || code != http.StatusOK {
		t.Fatalf("poll job: %d %v", code, err)
	}
	if jv.State != StateDone || jv.Table == nil || jv.Table.ID != "e8" {
		t.Fatalf("job view %+v", jv)
	}
	// A catalog name on the jobs route is not_found.
	status, e = getEnvelope(t, client, ts.URL+"/v1/jobs/e8")
	expectCode(t, status, e, api.CodeNotFound)
	// Unknown experiment on job creation is not_found too — the same
	// stable code whether the name travels in the path or the body.
	status, e = postEnvelope(t, client, ts.URL+"/v1/jobs", `{"experiment":"e99"}`)
	expectCode(t, status, e, api.CodeNotFound)

	// The pre-/v1 unversioned aliases are gone (their one-release
	// deprecation window ended); only the infrastructure probes remain
	// unversioned.
	for _, path := range []string{"/sessions", "/experiments", "/experiments/" + created.ID, "/stats"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("removed alias %s still answers: %d", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/metrics", "/healthz", "/readyz"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe %s: %d", path, resp.StatusCode)
		}
	}
}

// TestV1RequestIDs covers the middleware's id handling: a caller-sent id
// is propagated verbatim, an absent one is injected, and both are echoed
// on the response.
func TestV1RequestIDs(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 1})
	client := ts.Client()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set(api.RequestIDHeader, "caller-chose-this")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.RequestIDHeader); got != "caller-chose-this" {
		t.Fatalf("propagated id %q", got)
	}

	resp, err = client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.RequestIDHeader); !strings.HasPrefix(got, "req-") {
		t.Fatalf("injected id %q", got)
	}
}

// TestV1RequestLog asserts the structured per-request log line carries
// method, path, status, and the request id.
func TestV1RequestLog(t *testing.T) {
	var mu bytes.Buffer
	svc := newFarm(t, Config{Workers: 1, RequestLog: func(format string, args ...any) {
		fmt.Fprintf(&mu, format+"\n", args...)
	}})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set(api.RequestIDHeader, "log-me")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := mu.String()
	for _, want := range []string{"GET", "/v1/stats", "200", "req=log-me"} {
		if !strings.Contains(line, want) {
			t.Fatalf("request log %q misses %q", line, want)
		}
	}
}

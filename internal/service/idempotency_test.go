package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"asyncmediator/api"
)

// postKeyed POSTs a JSON body with an Idempotency-Key and returns the
// decoded handle plus the response.
func postKeyed(t *testing.T, client *http.Client, url, key string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.IdempotencyKeyHeader, key)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestIdempotentSessionCreate asserts the keyed-response cache: the same
// key creates one session, replays the first response verbatim, and
// flags the replay; a different key creates a second session.
func TestIdempotentSessionCreate(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 1})
	client := ts.Client()

	var h1, h2, h3 api.Handle
	r1 := postKeyed(t, client, ts.URL+"/v1/sessions", "key-a", Spec{}, &h1)
	if r1.StatusCode != http.StatusCreated || r1.Header.Get(api.IdempotencyReplayedHeader) != "" {
		t.Fatalf("first keyed create: %d replayed=%q", r1.StatusCode, r1.Header.Get(api.IdempotencyReplayedHeader))
	}
	r2 := postKeyed(t, client, ts.URL+"/v1/sessions", "key-a", Spec{}, &h2)
	if r2.StatusCode != http.StatusCreated || r2.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Fatalf("replayed create: %d replayed=%q", r2.StatusCode, r2.Header.Get(api.IdempotencyReplayedHeader))
	}
	if h1.ID != h2.ID {
		t.Fatalf("key replay minted a second session: %s vs %s", h1.ID, h2.ID)
	}
	postKeyed(t, client, ts.URL+"/v1/sessions", "key-b", Spec{}, &h3)
	if h3.ID == h1.ID {
		t.Fatalf("distinct key replayed: %s", h3.ID)
	}
	if got := svc.Stats().SessionsCreated; got != 2 {
		t.Fatalf("%d sessions created, want 2", got)
	}

	// Error outcomes are cached too: the second bad create replays the
	// envelope without re-executing.
	var e1, e2 api.ErrorEnvelope
	b1 := postKeyed(t, client, ts.URL+"/v1/sessions", "key-bad", Spec{Game: "poker"}, &e1)
	b2 := postKeyed(t, client, ts.URL+"/v1/sessions", "key-bad", Spec{Game: "poker"}, &e2)
	if b1.StatusCode != http.StatusBadRequest || b2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad create: %d then %d", b1.StatusCode, b2.StatusCode)
	}
	if b2.Header.Get(api.IdempotencyReplayedHeader) != "true" || e2.Error == nil || e2.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("bad-create replay: %+v", e2.Error)
	}

	// Keys are scoped per path: the same key on the types route executes
	// rather than replaying the create.
	var th api.Handle
	tr := postKeyed(t, client, ts.URL+"/v1/sessions/"+h1.ID+"/types", "key-a", api.TypesRequest{Types: make([]int, 5)}, &th)
	if tr.StatusCode != http.StatusAccepted || tr.Header.Get(api.IdempotencyReplayedHeader) != "" {
		t.Fatalf("types with reused key: %d replayed=%q", tr.StatusCode, tr.Header.Get(api.IdempotencyReplayedHeader))
	}
	// Replaying the types submit does not hit the lifecycle conflict the
	// raw duplicate would.
	tr2 := postKeyed(t, client, ts.URL+"/v1/sessions/"+h1.ID+"/types", "key-a", api.TypesRequest{Types: make([]int, 5)}, &th)
	if tr2.StatusCode != http.StatusAccepted || tr2.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Fatalf("types replay: %d replayed=%q", tr2.StatusCode, tr2.Header.Get(api.IdempotencyReplayedHeader))
	}
}

// TestIdempotentConcurrentDupes asserts single-flight semantics: many
// concurrent POSTs under one key execute the handler once.
func TestIdempotentConcurrentDupes(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 2})
	client := ts.Client()

	const dupes = 16
	ids := make([]string, dupes)
	var wg sync.WaitGroup
	for i := 0; i < dupes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h api.Handle
			postKeyed(t, client, ts.URL+"/v1/sessions", "key-race", Spec{}, &h)
			ids[i] = h.ID
		}()
	}
	wg.Wait()
	for i := 1; i < dupes; i++ {
		if ids[i] != ids[0] || ids[i] == "" {
			t.Fatalf("dupes diverged: %v", ids)
		}
	}
	if got := svc.Stats().SessionsCreated; got != 1 {
		t.Fatalf("%d sessions created under one key, want 1", got)
	}
}

// TestReadyWatermarkSheds asserts the load-shedding readiness gate: a
// queue at or above the watermark flips GET /readyz to 503 and counts a
// shed interval; draining the queue restores readiness.
func TestReadyWatermarkSheds(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 1, QueueDepth: 8, ReadyWatermark: 2})
	client := ts.Client()

	probe := func() (int, api.Readiness) {
		t.Helper()
		resp, err := client.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd api.Readiness
		_ = json.NewDecoder(resp.Body).Decode(&rd)
		return resp.StatusCode, rd
	}

	if code, rd := probe(); code != http.StatusOK || !rd.Ready {
		t.Fatalf("idle probe: %d %+v", code, rd)
	}

	// Wedge the single worker and stack jobs past the watermark.
	release := make(chan struct{})
	if err := svc.pool.Submit(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := svc.pool.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	code, rd := probe()
	if code != http.StatusServiceUnavailable || rd.Ready || rd.Reason == "" {
		t.Fatalf("saturated probe: %d %+v", code, rd)
	}
	if got := svc.Stats().ShedIntervals; got != 1 {
		t.Fatalf("shed intervals %d, want 1", got)
	}
	if svc.Stats().QueueDepth < 2 {
		t.Fatalf("queue depth %d under watermark", svc.Stats().QueueDepth)
	}
	// Repeated probes in the same interval do not re-count.
	probe()
	if got := svc.Stats().ShedIntervals; got != 1 {
		t.Fatalf("shed intervals grew to %d within one interval", got)
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, rd := probe(); code == http.StatusOK && rd.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never recovered readiness after the queue drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A second saturation counts a second interval.
	release2 := make(chan struct{})
	if err := svc.pool.Submit(func() { <-release2 }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := svc.pool.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if code, _ := probe(); code != http.StatusServiceUnavailable {
		t.Fatalf("second saturation probe: %d", code)
	}
	if got := svc.Stats().ShedIntervals; got != 2 {
		t.Fatalf("shed intervals %d, want 2", got)
	}
	close(release2)
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/game"
	"asyncmediator/internal/sim"
)

// httpFarm boots a farm behind an httptest server.
func httpFarm(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newFarm(t, cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) (int, error) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func getJSON(t *testing.T, client *http.Client, url string, out any) (int, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// TestHTTPSessionFarm256Concurrent is the acceptance test of the session
// farm: 256 clients concurrently drive session creation -> type submission
// -> outcome retrieval end-to-end over the HTTP API, all plays hosted by
// one process.
func TestHTTPSessionFarm256Concurrent(t *testing.T) {
	const sessions = 256
	svc, ts := httpFarm(t, Config{QueueDepth: sessions})
	client := ts.Client()

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for c := 0; c < sessions; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = func() error {
				// Mix the two games and cheap theorem configurations.
				spec := Spec{N: 4, K: 1, T: 0, Variant: "4.2"}
				if c%3 == 0 {
					spec = Spec{} // default serving configuration (n=5, t=1, 4.1)
				}
				var created api.Handle
				code, err := postJSON(t, client, ts.URL+"/v1/sessions", spec, &created)
				if err != nil {
					return err
				}
				if code != http.StatusCreated {
					return fmt.Errorf("create: status %d", code)
				}
				n := 4
				if c%3 == 0 {
					n = 5
				}
				types := make([]int, n)
				var accepted api.Handle
				code, err = postJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types",
					api.TypesRequest{Types: types}, &accepted)
				if err != nil {
					return err
				}
				if code != http.StatusAccepted {
					return fmt.Errorf("types: status %d", code)
				}
				// Poll until terminal.
				deadline := time.Now().Add(60 * time.Second)
				for {
					var v View
					code, err := getJSON(t, client, ts.URL+"/v1/sessions/"+created.ID, &v)
					if err != nil {
						return err
					}
					if code != http.StatusOK {
						return fmt.Errorf("get: status %d", code)
					}
					switch v.State {
					case StateDone:
						if len(v.Profile) != n {
							return fmt.Errorf("profile %v for n=%d", v.Profile, n)
						}
						for _, a := range v.Profile {
							if a != 0 && a != 1 {
								return fmt.Errorf("non-action outcome %v", v.Profile)
							}
						}
						if v.Deadlock {
							return fmt.Errorf("honest play deadlocked")
						}
						return nil
					case StateFailed:
						return fmt.Errorf("session failed: %s", v.Error)
					}
					if time.Now().After(deadline) {
						return fmt.Errorf("timeout in state %s", v.State)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Farm-level accounting must agree with the client count.
	var sv StatsView
	if code, err := getJSON(t, ts.Client(), ts.URL+"/v1/stats", &sv); err != nil || code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, err)
	}
	if sv.Sessions != sessions || sv.Failed != 0 {
		t.Fatalf("stats disagree: %+v", sv.StatsTotals)
	}
	if sv.SessionsCreated != sessions {
		t.Fatalf("registry has %d sessions", sv.SessionsCreated)
	}
	if sv.MessagesSent == 0 || len(sv.Outcomes) == 0 {
		t.Fatalf("aggregates missing: %+v", sv.StatsTotals)
	}
	if got := svc.reg.Len(); got != sessions {
		t.Fatalf("registry length %d", got)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 1})
	client := ts.Client()

	// Bad spec.
	if code, _ := postJSON(t, client, ts.URL+"/v1/sessions", Spec{Game: "poker"}, &api.ErrorEnvelope{}); code != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", code)
	}
	// Unknown fields rejected (strict decoding).
	resp, err := client.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte(`{"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	// Unknown session.
	var e api.ErrorEnvelope
	if code, _ := getJSON(t, client, ts.URL+"/v1/sessions/s-424242", &e); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	if code, _ := postJSON(t, client, ts.URL+"/v1/sessions/s-424242/types", api.TypesRequest{Types: []int{0}}, &e); code != http.StatusNotFound {
		t.Fatalf("types for unknown session: status %d", code)
	}
	// Malformed types.
	var created api.Handle
	if code, _ := postJSON(t, client, ts.URL+"/v1/sessions", Spec{}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code, _ := postJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types", api.TypesRequest{Types: []int{0}}, &e); code != http.StatusBadRequest {
		t.Fatalf("short types: status %d", code)
	}
	// A lifecycle conflict (double submission) is a 409, not a 400.
	if code, _ := postJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types", api.TypesRequest{Types: []int{0, 0, 0, 0, 0}}, nil); code != http.StatusAccepted {
		t.Fatalf("types: status %d", code)
	}
	if code, _ := postJSON(t, client, ts.URL+"/v1/sessions/"+created.ID+"/types", api.TypesRequest{Types: []int{0, 0, 0, 0, 0}}, &e); code != http.StatusConflict {
		t.Fatalf("double submission: status %d", code)
	}
	// Health.
	var h map[string]string
	if code, _ := getJSON(t, client, ts.URL+"/healthz", &h); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}
}

// TestHTTPExperiments drives the farm's experiment entry point: the
// catalog lists e1..e7, a job sweep runs through the farm's own worker
// pool and returns its table, bad inputs are rejected, and the retired
// in-request route no longer answers.
func TestHTTPExperiments(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 4})
	client := ts.Client()

	var cat struct {
		Experiments []sim.Experiment `json:"experiments"`
	}
	if code, err := getJSON(t, client, ts.URL+"/v1/experiments", &cat); code != http.StatusOK || err != nil {
		t.Fatalf("catalog: status %d err %v", code, err)
	}
	if len(cat.Experiments) != 7 || cat.Experiments[0].ID != "e1" {
		t.Fatalf("unexpected catalog: %+v", cat.Experiments)
	}

	// Seeds may be zero or negative — any int64 a CLI sweep accepts.
	for _, seed := range []int64{5, -3} {
		var created api.Handle
		if code, err := postJSON(t, client, ts.URL+"/v1/jobs", ExpRequest{Experiment: "e7", Trials: 2, Seed: &seed}, &created); code != http.StatusCreated || err != nil {
			t.Fatalf("create e7 seed %d: status %d err %v", seed, code, err)
		}
		var v ExpView
		if code, err := getJSON(t, client, ts.URL+"/v1/jobs/"+created.ID+"?wait=30s", &v); code != http.StatusOK || err != nil {
			t.Fatalf("poll e7 seed %d: status %d err %v", seed, code, err)
		}
		if v.State != StateDone || v.Table == nil || v.Table.ID != "e7" || len(v.Table.Rows) == 0 || v.Seed0 != seed {
			t.Fatalf("bad job view: %+v", v)
		}
	}

	status, e := postEnvelope(t, client, ts.URL+"/v1/jobs", `{"experiment":"e99"}`)
	expectCode(t, status, e, api.CodeNotFound)
	status, e = postEnvelope(t, client, ts.URL+"/v1/jobs", `{"experiment":"e7","trials":"zero"}`)
	expectCode(t, status, e, api.CodeInvalidArgument)
	status, e = postEnvelope(t, client, ts.URL+"/v1/jobs", `{"experiment":"e7","seed":"x"}`)
	expectCode(t, status, e, api.CodeInvalidArgument)

	resp, err := client.Get(ts.URL + "/v1/experiments/e7?trials=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired in-request sweep route answers: %d", resp.StatusCode)
	}
}

// TestListenAndServeGracefulShutdown boots the real daemon loop on an
// ephemeral port, submits work, cancels the context, and asserts the
// shutdown drained every queued session.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	svc := newFarm(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- svc.ListenAndServe(ctx, "127.0.0.1:0") }()

	// The ephemeral port is unknown; drive the farm directly and use the
	// HTTP loop only for its lifecycle. (The API surface itself is covered
	// above against httptest.)
	sessions := make([]*Session, 0, 8)
	for i := 0; i < 8; i++ {
		sess, err := svc.CreateSession(Spec{N: 4, K: 1, T: 0, Variant: "4.2"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	for _, sess := range sessions {
		if st := sess.stateNow(); st != StateDone {
			t.Fatalf("session %s left in %s after shutdown", sess.ID, st)
		}
	}
}

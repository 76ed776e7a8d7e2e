package client_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/service"
	"asyncmediator/pkg/client"
)

// farmClient boots a real farm behind httptest and a Client on it.
func farmClient(t *testing.T, cfg service.Config) (*service.Service, *client.Client) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	c, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	return svc, c
}

// TestClientSessionRoundTrip is the SDK acceptance test: create ->
// submit types -> wait to terminal, all through typed calls, then the
// one-call convenience and stats.
func TestClientSessionRoundTrip(t *testing.T) {
	_, c := farmClient(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	h, err := c.CreateSession(ctx, api.SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if h.State != api.StateAwaitingTypes || h.ID == "" || h.Seed == 0 {
		t.Fatalf("create handle %+v", h)
	}
	if _, err := c.SubmitTypes(ctx, h.ID, make([]int, 5)); err != nil {
		t.Fatal(err)
	}
	v, err := c.WaitSession(ctx, h.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != api.StateDone || len(v.Profile) != 5 || v.Deadlock {
		t.Fatalf("terminal view %+v", v)
	}

	// The one-call convenience plays a different configuration.
	v2, err := c.PlaySession(ctx, api.SessionSpec{N: 4, K: 1, Variant: "4.2"}, make([]int, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != api.StateDone || len(v2.Profile) != 4 {
		t.Fatalf("played view %+v", v2)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 2 || st.SessionsCreated != 2 {
		t.Fatalf("stats %+v", st.StatsTotals)
	}
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestClientSentinelErrors asserts every contract code surfaces as the
// matching errors.Is sentinel.
func TestClientSentinelErrors(t *testing.T) {
	_, c := farmClient(t, service.Config{Workers: 1})
	ctx := context.Background()

	if _, err := c.GetSession(ctx, "s-424242"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown session: %v", err)
	}
	if _, err := c.CreateSession(ctx, api.SessionSpec{Game: "poker"}); !errors.Is(err, client.ErrInvalidArgument) {
		t.Fatalf("bad spec: %v", err)
	}
	h, err := c.CreateSession(ctx, api.SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitTypes(ctx, h.ID, []int{0}); !errors.Is(err, client.ErrInvalidArgument) {
		t.Fatalf("short types: %v", err)
	}
	if _, err := c.SubmitTypes(ctx, h.ID, make([]int, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitTypes(ctx, h.ID, make([]int, 5)); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("double submit: %v", err)
	}
	if _, err := c.GetJob(ctx, "x-424242"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown job: %v", err)
	}
	// The structured error carries the server's code and message.
	var ae *client.Error
	_, err = c.GetSession(ctx, "s-424242")
	if !errors.As(err, &ae) || ae.Err.Code != api.CodeNotFound || ae.Status != http.StatusNotFound {
		t.Fatalf("structured error: %v", err)
	}
}

// TestClientRetryBackoff asserts retryable failures (pool saturation)
// are retried with backoff and non-retryable ones are not.
func TestClientRetryBackoff(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) < 3 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":{"code":"pool_saturated","message":"queue full"}}`))
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"s-000001","state":"awaiting-types","seed":7}`))
	})
	var conflicts atomic.Int64
	mux.HandleFunc("POST /v1/sessions/{id}/types", func(w http.ResponseWriter, r *http.Request) {
		conflicts.Add(1)
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"error":{"code":"conflict","message":"nope"}}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	c, err := client.New(ts.URL, client.WithRetries(3), client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.CreateSession(context.Background(), api.SessionSpec{})
	if err != nil {
		t.Fatalf("create after retries: %v", err)
	}
	if h.ID != "s-000001" || posts.Load() != 3 {
		t.Fatalf("handle %+v after %d posts", h, posts.Load())
	}
	// A conflict is never retried.
	if _, err := c.SubmitTypes(context.Background(), h.ID, []int{0}); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("conflict: %v", err)
	}
	if conflicts.Load() != 1 {
		t.Fatalf("conflict retried %d times", conflicts.Load())
	}
	// Retries respect the context.
	posts.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CreateSession(ctx, api.SessionSpec{}); err == nil {
		t.Fatal("cancelled create succeeded")
	}
}

// TestClientErrorFallback: a non-envelope error body (legacy server,
// proxy) still maps onto a sentinel by HTTP status.
func TestClientErrorFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text not found", http.StatusNotFound)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetSession(context.Background(), "s-1"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("fallback mapping: %v", err)
	}
}

// TestClientPaginationWalk drives EachSession across next_offset
// cursors.
func TestClientPaginationWalk(t *testing.T) {
	_, c := farmClient(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 7; i++ {
		if _, err := c.PlaySession(ctx, api.SessionSpec{N: 4, K: 1, Variant: "4.2"}, make([]int, 4)); err != nil {
			t.Fatal(err)
		}
	}
	var walked []string
	err := c.EachSession(ctx, client.ListSessionsOptions{State: "done", Limit: 3}, func(v api.SessionView) error {
		walked = append(walked, v.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(walked) != 7 {
		t.Fatalf("walked %d sessions: %v", len(walked), walked)
	}
	for i := 1; i < len(walked); i++ {
		if walked[i] <= walked[i-1] {
			t.Fatalf("walk out of order: %v", walked)
		}
	}
}

// TestClientEventStream subscribes before the play and receives its
// lifecycle through the SSE helper, terminal snapshot included.
func TestClientEventStream(t *testing.T) {
	_, c := farmClient(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	h, err := c.CreateSession(ctx, api.SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := c.StreamEvents(ctx, client.StreamOptions{Session: h.ID})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if stream.Hello().Seq <= 0 {
		t.Fatalf("hello seq %d", stream.Hello().Seq)
	}
	if _, err := c.SubmitTypes(ctx, h.ID, make([]int, 5)); err != nil {
		t.Fatal(err)
	}
	var lastSeq int64
	for {
		e, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != h.ID || e.Kind != api.KindSession {
			t.Fatalf("filter leaked %+v", e)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("seq not monotone: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Terminal {
			v, ok := e.Session()
			if !ok || v.ID != h.ID || v.State != api.StateDone || len(v.Profile) != 5 {
				t.Fatalf("terminal payload %+v ok=%v", v, ok)
			}
			return
		}
	}
}

// TestClientExperiments covers the catalog, the synchronous run, and the
// async job path.
func TestClientExperiments(t *testing.T) {
	_, c := farmClient(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cat, err := c.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 7 || cat[0].ID != "e1" {
		t.Fatalf("catalog %+v", cat)
	}
	seed := int64(5)
	tab, err := c.RunExperiment(ctx, "e7", client.RunOptions{Trials: 2, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "e7" || len(tab.Rows) == 0 {
		t.Fatalf("table %+v", tab)
	}
	if _, err := c.RunExperiment(ctx, "e99", client.RunOptions{}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown experiment: %v", err)
	}

	jv, err := c.RunJob(ctx, api.ExperimentRequest{Experiment: "e7", Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if jv.State != api.StateDone || jv.Table == nil || jv.Table.ID != "e7" {
		t.Fatalf("job view %+v", jv)
	}
	if _, err := c.CreateJob(ctx, api.ExperimentRequest{Experiment: "e99"}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown job experiment: %v", err)
	}
}

// TestClientStreamEOFOnShutdown: closing the farm ends the stream with
// io.EOF, not a hang.
func TestClientStreamEOFOnShutdown(t *testing.T) {
	svc, c := farmClient(t, service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stream, err := c.StreamEvents(ctx, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	go svc.Events().Close()
	for {
		if _, err := stream.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("stream ended with %v, want EOF", err)
			}
			return
		}
	}
}

// TestClientIdempotentPOSTRetry: a POST whose first attempt dies at the
// transport layer (connection severed before any response) is retried —
// safe because every SDK POST carries an Idempotency-Key — and the same
// key arrives on every attempt, so the server executes at most once.
func TestClientIdempotentPOSTRetry(t *testing.T) {
	var keys []string
	var attempts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get(api.IdempotencyKeyHeader))
		if attempts.Add(1) == 1 {
			// Sever the connection mid-request: the client sees a
			// transport error, not an HTTP status.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"s-000042","state":"awaiting-types","seed":9}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	c, err := client.New(ts.URL, client.WithRetries(2), client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.CreateSession(context.Background(), api.SessionSpec{})
	if err != nil {
		t.Fatalf("create after transport failure: %v", err)
	}
	if h.ID != "s-000042" || attempts.Load() != 2 {
		t.Fatalf("handle %+v after %d attempts", h, attempts.Load())
	}
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency keys across attempts: %q", keys)
	}
}

// TestClientClusterCalls drives the daemon-to-daemon surface through
// the SDK against two real farms: join answers addresses, start runs
// the co-hosted players, and an unknown cluster id maps to ErrNotFound.
func TestClientClusterCalls(t *testing.T) {
	_, peerC := farmClient(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := peerC.ClusterStart(ctx, api.ClusterStartRequest{ClusterID: "c-nope", Addrs: make([]string, 4)}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("start of unknown cluster: %v", err)
	}
	join := api.ClusterJoinRequest{
		ClusterID: "c-sdk",
		Spec:      api.SessionSpec{Game: "consensus", N: 4, K: 1, Variant: "4.2"},
		Types:     []int{0, 0, 0, 0},
		Players:   []int{0, 1, 2, 3}, // the peer hosts the whole play
		Seed:      3,
	}
	resp, err := peerC.ClusterJoin(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range resp.Addrs {
		if a == "" {
			t.Fatalf("player %d unbound: %v", i, resp.Addrs)
		}
	}
	// A repeated join replays through the deterministic cluster-id key:
	// same addresses, no conflict — the keyed-retry contract.
	again, err := peerC.ClusterJoin(ctx, join)
	if err != nil {
		t.Fatalf("double join: %v", err)
	}
	if len(again.Addrs) != len(resp.Addrs) || again.Addrs[0] != resp.Addrs[0] {
		t.Fatalf("replayed join addrs %v != %v", again.Addrs, resp.Addrs)
	}
	start, err := peerC.ClusterStart(ctx, api.ClusterStartRequest{ClusterID: "c-sdk", Addrs: resp.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	if len(start.Results) != 4 {
		t.Fatalf("results %+v", start.Results)
	}
	for _, r := range start.Results {
		if r.Error != "" || r.TimedOut || len(r.Move) == 0 {
			t.Fatalf("player %d result %+v", r.Index, r)
		}
	}
	// The play lingers (resend buffers stay live) until finish releases
	// it; a second finish is a successful no-op.
	fin, err := peerC.ClusterFinish(ctx, api.ClusterFinishRequest{ClusterID: "c-sdk"})
	if err != nil || !fin.Released {
		t.Fatalf("finish: %+v %v", fin, err)
	}
	// A repeated finish replays the cached response under the same
	// deterministic key (Released stays true) instead of re-executing.
	fin, err = peerC.ClusterFinish(ctx, api.ClusterFinishRequest{ClusterID: "c-sdk"})
	if err != nil || !fin.Released {
		t.Fatalf("double finish: %+v %v", fin, err)
	}
}

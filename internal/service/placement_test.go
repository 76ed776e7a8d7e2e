package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/sched"
	"asyncmediator/pkg/client"
)

// fleetHTTPFarms boots n farms joined into one gossip mesh, each behind
// a real HTTP server whose URL is also its advertised API address — so
// the placement scheduler's candidates are directly dialable.
func fleetHTTPFarms(t *testing.T, n int) ([]*Service, []string) {
	t.Helper()
	table := reservePorts(t, n)
	// Bind the API listeners first: each daemon must advertise its real
	// URL at boot, before its HTTP server exists.
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	farms := make([]*Service, n)
	for i := range farms {
		svc := newFarm(t, Config{
			Workers:        2,
			FleetListen:    table[i],
			FleetPeers:     table,
			AdvertiseURL:   urls[i],
			GossipInterval: 25 * time.Millisecond,
		})
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: svc.Handler()}}
		ts.Start()
		t.Cleanup(ts.Close)
		farms[i] = svc
	}
	t.Cleanup(func() {
		for _, f := range farms {
			f.Close()
		}
	})
	return farms, urls
}

// waitFleetHealthy blocks until the farm's fleet view reports n healthy
// daemons, every one with its advertised URL attached.
func waitFleetHealthy(t *testing.T, f *Service, n int) {
	t.Helper()
	waitUntil(t, 10*time.Second, "fleet healthy with addresses", func() bool {
		fv, ok := f.FleetView()
		if !ok || fv.Healthy != n {
			return false
		}
		for _, p := range fv.Peers {
			if p.Addr == "" {
				return false
			}
		}
		return true
	})
}

// TestAutoPlacementSpreadsAcrossFleet is the tentpole acceptance test: a
// placement:"auto" session with NO peers list runs across all three
// daemons of the fleet, the resolved assignment rides the session view,
// and the plan endpoint predicts the same spread.
func TestAutoPlacementSpreadsAcrossFleet(t *testing.T) {
	farms, _ := fleetHTTPFarms(t, 3)
	coord := farms[0]
	waitFleetHealthy(t, coord, 3)

	spec := Spec{N: 5, T: 1, Placement: &api.PlacementSpec{Mode: api.PlacementModeAuto}}
	sess, err := coord.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Spec.Backend != "wire" {
		t.Fatalf("auto placement normalized to backend %q", sess.Spec.Backend)
	}
	if _, err := coord.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("auto-placed session did not terminate")
	}
	v := sess.Snapshot()
	if v.State != StateDone {
		t.Fatalf("auto-placed session ended %s: %s", v.State, v.Error)
	}
	if v.Placement == nil {
		t.Fatal("terminal view carries no placement")
	}
	if v.Placement.Daemons != 3 {
		t.Fatalf("placement used %d daemons, want 3: %+v", v.Placement.Daemons, v.Placement)
	}
	placed := map[int]bool{}
	for _, a := range v.Placement.Assignments {
		for _, p := range a.Players {
			placed[p] = true
		}
	}
	if len(placed) != 5 {
		t.Fatalf("assignments cover %d players, want 5: %+v", len(placed), v.Placement.Assignments)
	}
	// Both peer daemons actually co-hosted players.
	for i := 1; i < 3; i++ {
		if got := farms[i].Stats().ClusterPlaysHosted; got != 1 {
			t.Fatalf("farm %d hosted %d plays, want 1", i, got)
		}
	}
	placedN, rejects := coord.placements.Value(), coord.placeRejects.Values()
	if placedN != 1 || len(rejects) != 0 {
		t.Fatalf("placement counters %d/%v", placedN, rejects)
	}
}

// TestClusterPlanPredictsSpread asserts the dry-run endpoint: the plan a
// fleet coordinator serves names every healthy daemon and creates
// nothing.
func TestClusterPlanPredictsSpread(t *testing.T) {
	farms, urls := fleetHTTPFarms(t, 3)
	coord := farms[0]
	waitFleetHealthy(t, coord, 3)

	cl, err := client.New(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := cl.ClusterPlan(ctx, api.ClusterPlanRequest{Spec: api.SessionSpec{N: 5, T: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.HealthyDaemons != 3 || resp.Placement.Daemons != 3 {
		t.Fatalf("plan %+v", resp)
	}
	if resp.Placement.Floor != 5 {
		t.Fatalf("floor %d for Theorem 4.1 at k=0 t=1, want 4k+4t+1 = 5", resp.Placement.Floor)
	}
	if got := coord.Stats().SessionsCreated; got != 0 {
		t.Fatalf("plan created %d sessions", got)
	}
	// The assignment is deterministic: planning again yields the same
	// spread (equal loads tie-break on sorted URL).
	again, err := cl.ClusterPlan(ctx, api.ClusterPlanRequest{Spec: api.SessionSpec{N: 5, T: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Placement.Assignments) != len(resp.Placement.Assignments) {
		t.Fatalf("plan not deterministic: %+v vs %+v", again.Placement, resp.Placement)
	}
	for i, a := range again.Placement.Assignments {
		b := resp.Placement.Assignments[i]
		if a.Addr != b.Addr || len(a.Players) != len(b.Players) {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestPlanFloorFollowsVariant plans each theorem variant at exactly its
// bound and one below: at n = Bound the plan succeeds and reports Bound as
// its floor; at n = Bound-1 core refuses the spec before any placement.
func TestPlanFloorFollowsVariant(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 1}) // fleetless: 1 usable daemon
	httpc := ts.Client()
	for _, tc := range []struct {
		variant string
		v       core.Variant
		k, t    int
	}{
		{"4.1", core.Exact41, 1, 0},
		{"4.2", core.Epsilon42, 1, 0}, // n = 3k+3t+1 = 4, under 4k+3t+1
		{"4.4", core.Punish44, 1, 0},
		{"4.5", core.Punish45, 1, 1},
	} {
		bound := tc.v.Bound(tc.k, tc.t)
		for _, n := range []int{bound, bound - 1} {
			spec := api.SessionSpec{Game: "consensus", N: n, K: tc.k, T: tc.t, Variant: tc.variant}
			var out struct {
				api.ClusterPlanResponse
				api.ErrorEnvelope
			}
			resp := postKeyed(t, httpc, ts.URL+"/v1/cluster/plan", fmt.Sprintf("plan-%s-%d", tc.variant, n),
				api.ClusterPlanRequest{Spec: spec}, &out)
			if n < bound {
				if resp.StatusCode != http.StatusBadRequest || out.Error == nil || out.Error.Code != api.CodeInvalidArgument {
					t.Fatalf("%s n=%d under its bound: %d %+v", tc.variant, n, resp.StatusCode, out.Error)
				}
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s n=%d k=%d t=%d at its bound: %d %+v", tc.variant, n, tc.k, tc.t, resp.StatusCode, out.Error)
			}
			if out.Placement.Floor != bound || out.Placement.Daemons != 1 {
				t.Fatalf("%s plan at its bound: %+v, want floor %d on 1 daemon", tc.variant, out.Placement, bound)
			}
		}
	}
}

// TestPlacementRefusalCodes pins the two refusal codes to their HTTP
// faces: a scheduler refusal (sched.ErrInfeasible) answers 400
// placement_infeasible; a fleet smaller than the requested min_daemons
// answers 503 fleet_under_floor (retryable).
func TestPlacementRefusalCodes(t *testing.T) {
	_, ts := httpFarm(t, Config{Workers: 1}) // fleetless: 1 usable daemon
	httpc := ts.Client()

	post := func(spec api.SessionSpec) (*http.Response, api.ErrorEnvelope) {
		t.Helper()
		var env api.ErrorEnvelope
		resp := postKeyed(t, httpc, ts.URL+"/v1/cluster/plan", "plan-"+spec.Variant+string(rune('0'+spec.N)), api.ClusterPlanRequest{Spec: spec}, &env)
		return resp, env
	}

	// The farm validates a spec against core before placing it, so no
	// well-formed request reaches the scheduler's own refusal; pin its
	// mapping directly.
	if e := apiError(fmt.Errorf("%w: n=3", sched.ErrInfeasible), api.CodeInternal); e.Code != api.CodePlacementInfeasible || e.Code.HTTPStatus() != http.StatusBadRequest {
		t.Fatalf("scheduler refusal maps to %s (%d)", e.Code, e.Code.HTTPStatus())
	}

	resp, env := post(api.SessionSpec{N: 5, T: 1, Placement: &api.PlacementSpec{Mode: api.PlacementModeAuto, MinDaemons: 5}})
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != api.CodeFleetUnderFloor {
		t.Fatalf("under-floor fleet: %d %+v", resp.StatusCode, env.Error)
	}
	if !env.Error.Code.Retryable() {
		t.Fatal("fleet_under_floor must be retryable")
	}

	// The same refusal through session exec: the session fails, the
	// rejection is tallied, and nothing ran.
	svc := newFarm(t, Config{Workers: 1})
	sess, err := svc.CreateSession(Spec{N: 5, T: 1, Placement: &api.PlacementSpec{Mode: api.PlacementModeAuto, MinDaemons: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	v := sess.Snapshot()
	if v.State != StateFailed || !strings.Contains(v.Error, "under placement floor") {
		t.Fatalf("under-floor session: %s %q", v.State, v.Error)
	}
	rejects := svc.placeRejects.Values()
	if rejects["under_floor"] != 1 {
		t.Fatalf("rejection counters %v", rejects)
	}
}

// TestPlacementSpecValidation covers create-time placement validation:
// bad modes and strategies are rejected up front, and a placement spec
// defaults the backend to wire.
func TestPlacementSpecValidation(t *testing.T) {
	svc := newFarm(t, Config{Workers: 1})
	if _, err := svc.CreateSession(Spec{Placement: &api.PlacementSpec{Mode: "manual"}}); err == nil {
		t.Fatal("unknown placement mode accepted")
	}
	if _, err := svc.CreateSession(Spec{Placement: &api.PlacementSpec{Mode: api.PlacementModeAuto, Strategy: "wat"}}); err == nil {
		t.Fatal("unknown placement strategy accepted")
	}
	if _, err := svc.CreateSession(Spec{Backend: "sim", Placement: &api.PlacementSpec{Mode: api.PlacementModeAuto}}); err == nil {
		t.Fatal("sim backend with placement accepted")
	}
	if _, err := svc.CreateSession(Spec{Placement: &api.PlacementSpec{Mode: api.PlacementModeAuto, MinDaemons: -1}}); err == nil {
		t.Fatal("negative min_daemons accepted")
	}
	sess, err := svc.CreateSession(Spec{Placement: &api.PlacementSpec{Mode: api.PlacementModeAuto}})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Spec.Backend != "wire" {
		t.Fatalf("placement spec normalized to backend %q", sess.Spec.Backend)
	}
	// The string shorthand decodes to the same spec.
	var spec api.SessionSpec
	if err := json.Unmarshal([]byte(`{"n":5,"placement":"auto"}`), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Placement == nil || spec.Placement.Mode != api.PlacementModeAuto {
		t.Fatalf("shorthand decoded to %+v", spec.Placement)
	}
}

// TestClusterJoinFanOutIsParallel stalls two peer joins behind slow stub
// daemons and bounds the wall clock: the fan-out must cost max(join),
// not the sum — the sequential loop this replaced would need 2x.
func TestClusterJoinFanOutIsParallel(t *testing.T) {
	const delay = 500 * time.Millisecond
	stub := func() string {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/cluster/join", func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Errorf(api.CodeInvalidArgument, "stub refuses")})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	stubA, stubB := stub(), stub()

	svc := newFarm(t, Config{Workers: 1})
	sess, err := svc.CreateSession(Spec{
		Game: "consensus", N: 4, K: 1, Variant: "4.2",
		Peers: []api.PeerSpec{{Index: 2, Addr: stubA}, {Index: 3, Addr: stubB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("session did not terminate")
	}
	elapsed := time.Since(start)
	if elapsed >= 2*delay {
		t.Fatalf("join fan-out took %s — sequential (2x%s); parallel joins must cost max, not sum", elapsed, delay)
	}
	v := sess.Snapshot()
	if v.State != StateFailed {
		t.Fatalf("stub-backed session ended %s", v.State)
	}
	// The per-peer error names the failing daemon's address.
	if !strings.Contains(v.Error, "cluster join") || !(strings.Contains(v.Error, stubA) || strings.Contains(v.Error, stubB)) {
		t.Fatalf("join error does not name the failing peer: %q", v.Error)
	}
}

// TestAsyncClusterStartDeliversOverSSE drives the async start protocol
// exactly like a coordinator: subscribe to the peer's event stream under
// the cluster id, post the start with async set, and receive the
// terminal outcomes as an event. A follow-up synchronous start replays
// the gathered result while the play lingers.
func TestAsyncClusterStartDeliversOverSSE(t *testing.T) {
	peer, ts := httpFarm(t, Config{Workers: 2})
	cl, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clusterID = "c-async"
	join, err := peer.ClusterJoin(api.ClusterJoinRequest{
		ClusterID: clusterID,
		Spec:      Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2"},
		Types:     []int{0, 0, 0, 0},
		Players:   []int{0, 1, 2, 3},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}

	es, err := cl.StreamEvents(ctx, client.StreamOptions{Session: clusterID})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	resp, err := cl.ClusterStart(ctx, api.ClusterStartRequest{ClusterID: clusterID, Addrs: join.Addrs, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || len(resp.Results) != 0 {
		t.Fatalf("async start answered %+v, want a bare accept", resp)
	}

	var out api.ClusterStartResponse
	for {
		ev, err := es.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Terminal || ev.ID != clusterID {
			continue
		}
		if err := json.Unmarshal(ev.Data, &out); err != nil {
			t.Fatal(err)
		}
		break
	}
	if len(out.Results) != 4 {
		t.Fatalf("terminal event results %+v", out.Results)
	}
	for _, r := range out.Results {
		if r.Error != "" || r.TimedOut || len(r.Move) == 0 {
			t.Fatalf("player %d result %+v", r.Index, r)
		}
	}

	// The play lingers: a synchronous re-start replays the gathered
	// outcome instead of conflicting (a restarted coordinator's retry).
	replay, err := peer.ClusterStart(api.ClusterStartRequest{ClusterID: clusterID, Addrs: join.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Results) != 4 {
		t.Fatalf("replayed start %+v", replay)
	}
	if _, err := peer.ClusterFinish(api.ClusterFinishRequest{ClusterID: clusterID}); err != nil {
		t.Fatal(err)
	}
}

// TestIdempotentCreateReplaysAcrossRestart is the durable half of the
// keyed-retry contract: a keyed session create replays — same id, the
// replay header set — even when the daemon restarted in between, because
// the response was mirrored to the store.
func TestIdempotentCreateReplaysAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Service, *httptest.Server) {
		svc, err := New(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return svc, httptest.NewServer(svc.Handler())
	}

	svc1, ts1 := boot()
	var h1 api.Handle
	r1 := postKeyed(t, ts1.Client(), ts1.URL+"/v1/sessions", "restart-key", Spec{}, &h1)
	if r1.StatusCode != http.StatusCreated || r1.Header.Get(api.IdempotencyReplayedHeader) != "" {
		t.Fatalf("first create: %d replayed=%q", r1.StatusCode, r1.Header.Get(api.IdempotencyReplayedHeader))
	}
	// Run the session to terminal so it persists: the replayed handle must
	// name a session that still exists after the restart.
	sess1, err := svc1.SubmitTypes(h1.ID, make([]game.Type, 5))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess1.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("session did not terminate before restart")
	}
	ts1.Close()
	svc1.Close()

	svc2, ts2 := boot()
	defer svc2.Close()
	defer ts2.Close()
	var h2 api.Handle
	r2 := postKeyed(t, ts2.Client(), ts2.URL+"/v1/sessions", "restart-key", Spec{}, &h2)
	if r2.StatusCode != http.StatusCreated || r2.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Fatalf("post-restart create: %d replayed=%q", r2.StatusCode, r2.Header.Get(api.IdempotencyReplayedHeader))
	}
	if h2.ID != h1.ID {
		t.Fatalf("restart replay minted a new session: %s vs %s", h2.ID, h1.ID)
	}
	// A fresh key still executes normally after recovery.
	var h3 api.Handle
	r3 := postKeyed(t, ts2.Client(), ts2.URL+"/v1/sessions", "other-key", Spec{}, &h3)
	if r3.StatusCode != http.StatusCreated || r3.Header.Get(api.IdempotencyReplayedHeader) != "" || h3.ID == h1.ID {
		t.Fatalf("fresh key after restart: %d %+v", r3.StatusCode, h3)
	}
}

// TestGroupPeers pins the peer-grouping contract runCluster and the
// placement scheduler both rely on: one join per distinct daemon, player
// indices sorted within a daemon, daemons visited in sorted-address
// order (determinism across coordinators).
func TestGroupPeers(t *testing.T) {
	cases := []struct {
		name   string
		peers  []api.PeerSpec
		addrs  []string
		byAddr map[string][]int
	}{
		{name: "empty", peers: nil, addrs: nil, byAddr: map[string][]int{}},
		{
			name:   "one daemon many players",
			peers:  []api.PeerSpec{{Index: 3, Addr: "http://b"}, {Index: 1, Addr: "http://b"}},
			addrs:  []string{"http://b"},
			byAddr: map[string][]int{"http://b": {1, 3}},
		},
		{
			name: "two daemons sorted by address",
			peers: []api.PeerSpec{
				{Index: 4, Addr: "http://z"}, {Index: 2, Addr: "http://a"}, {Index: 3, Addr: "http://z"},
			},
			addrs:  []string{"http://a", "http://z"},
			byAddr: map[string][]int{"http://a": {2}, "http://z": {3, 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs, byAddr := groupPeers(tc.peers)
			if len(addrs) != len(tc.addrs) {
				t.Fatalf("addrs %v, want %v", addrs, tc.addrs)
			}
			for i := range addrs {
				if addrs[i] != tc.addrs[i] {
					t.Fatalf("addrs %v, want %v", addrs, tc.addrs)
				}
			}
			if len(byAddr) != len(tc.byAddr) {
				t.Fatalf("byAddr %v, want %v", byAddr, tc.byAddr)
			}
			for a, want := range tc.byAddr {
				got := byAddr[a]
				if len(got) != len(want) {
					t.Fatalf("byAddr[%s] = %v, want %v", a, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("byAddr[%s] = %v, want %v", a, got, want)
					}
				}
			}
		})
	}
}

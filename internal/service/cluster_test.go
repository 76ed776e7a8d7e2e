package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/game"
)

// twoFarms boots a coordinator and a peer daemon, each behind a real
// HTTP server — two failure domains in one test process.
func twoFarms(t *testing.T, cfg Config) (coord, peer *Service, coordURL, peerURL string) {
	t.Helper()
	mk := func() (*Service, string) {
		svc := newFarm(t, cfg)
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		return svc, ts.URL
	}
	coord, coordURL = mk()
	peer, peerURL = mk()
	return coord, peer, coordURL, peerURL
}

// clusterSpec is the canonical cross-process play of these tests: the
// 4-player consensus game under Theorem 4.2 (k=1), players 2 and 3
// hosted by the peer daemon. With a unanimous type profile the majority
// circuit's output — and therefore the resolved profile — is fully
// determined, so the outcome is comparable across backends and runs.
func clusterSpec(peerURL string) Spec {
	return Spec{
		Game: "consensus", N: 4, K: 1, Variant: "4.2",
		Peers: []api.PeerSpec{
			{Index: 2, Addr: peerURL},
			{Index: 3, Addr: peerURL},
		},
	}
}

// playCluster drives one cluster session end to end on the coordinator
// and returns the terminal view. A play takes milliseconds; its 20 s wait
// fails a stuck play well inside the suite's timeout.
func playCluster(t *testing.T, coord *Service, spec Spec, types []game.Type) View {
	t.Helper()
	sess, err := coord.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.SubmitTypes(sess.ID, types); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(20 * time.Second):
		t.Fatalf("cluster session %s did not terminate", sess.ID)
	}
	return sess.Snapshot()
}

// TestClusterSessionAcrossTwoDaemons is the tentpole acceptance test: a
// session whose peers span two mediatord processes completes a full
// play with the same outcome as the single-process backends, and the
// terminal result lands on the coordinator's registry like any other
// session.
func TestClusterSessionAcrossTwoDaemons(t *testing.T) {
	coord, peer, _, peerURL := twoFarms(t, Config{Workers: 2})
	types := []game.Type{0, 0, 0, 0}

	v := playCluster(t, coord, clusterSpec(peerURL), types)
	if v.State != StateDone {
		t.Fatalf("cluster session ended %s: %+v", v.State, v)
	}
	if v.Deadlock {
		t.Fatalf("cluster play deadlocked: %+v", v)
	}
	if len(v.Profile) != 4 {
		t.Fatalf("profile %v", v.Profile)
	}

	// The same play on the in-process sim backend: unanimous consensus
	// must agree on the same joint action.
	sim := newFarm(t, Config{Workers: 1})
	sv, err := sim.CreateSession(Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.SubmitTypes(sv.ID, types); err != nil {
		t.Fatal(err)
	}
	<-sv.Done()
	want := sv.Snapshot()
	if want.State != StateDone {
		t.Fatalf("sim reference ended %s", want.State)
	}
	if !reflect.DeepEqual(v.Profile, want.Profile) {
		t.Fatalf("cluster profile %v != sim profile %v", v.Profile, want.Profile)
	}
	if !reflect.DeepEqual(v.Utilities, want.Utilities) {
		t.Fatalf("cluster utilities %v != sim %v", v.Utilities, want.Utilities)
	}

	// The peer co-hosted exactly one play, and neither daemon holds
	// parked state.
	if got := peer.Stats().ClusterPlaysHosted; got != 1 {
		t.Fatalf("peer hosted %d plays, want 1", got)
	}
	for _, d := range []struct {
		name string
		svc  *Service
	}{{"coordinator", coord}, {"peer", peer}} {
		d.svc.clusterMu.Lock()
		parked := len(d.svc.clusterPlays)
		d.svc.clusterMu.Unlock()
		if parked != 0 {
			t.Fatalf("%d cluster plays still parked on the %s", parked, d.name)
		}
	}
	// The coordinator's messages counters saw both daemons' traffic.
	if v.MsgsSent == 0 || v.MsgsDeliv == 0 {
		t.Fatalf("traffic counters empty: %+v", v)
	}
}

// TestClusterPeerIsCoordinator: a spec that names the coordinator's own
// URL as the daemon of players 2 and 3 still plays. The coordinator joins
// and starts itself over HTTP like any peer, and the players it hosts for
// its own session are not a joined play that this join could collide
// with. With one worker, the session's play holds that worker while it
// waits on its own start call, so the start must not need a worker.
func TestClusterPeerIsCoordinator(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			coord, ts := httpFarm(t, Config{Workers: workers})
			v := playCluster(t, coord, clusterSpec(ts.URL), make([]game.Type, 4))
			if want := []int{0, 0, 0, 0}; v.State != StateDone || !reflect.DeepEqual(v.Profile, want) {
				t.Fatalf("self-peered play ended %s with profile %v, want done %v (%s)", v.State, v.Profile, want, v.Error)
			}
		})
	}
}

// TestClusterAllPlayersOnPeers: a play whose every player is hosted by a
// peer ends done, and the coordinator, which hosts none, opens no node:
// its cluster endpoint is never bound.
func TestClusterAllPlayersOnPeers(t *testing.T) {
	coord, _, _, peerURL := twoFarms(t, Config{Workers: 2})
	spec := clusterSpec(peerURL)
	spec.Peers = append(spec.Peers, api.PeerSpec{Index: 0, Addr: peerURL}, api.PeerSpec{Index: 1, Addr: peerURL})
	v := playCluster(t, coord, spec, make([]game.Type, 4))
	if want := []int{0, 0, 0, 0}; v.State != StateDone || !reflect.DeepEqual(v.Profile, want) {
		t.Fatalf("all-peer play ended %s with profile %v, want done %v (%s)", v.State, v.Profile, want, v.Error)
	}
	if addr := coord.clusterEP.Addr(); addr != "" {
		t.Fatalf("the coordinator hosts no player but bound its cluster endpoint at %s", addr)
	}
}

// TestClusterSessionSurvivesConnDrop severs every live transport
// connection on both daemons while the play is in flight: the links
// must reconnect, replay, and finish with the correct outcome — the
// issue's transient-fault acceptance criterion.
func TestClusterSessionSurvivesConnDrop(t *testing.T) {
	coord, peer, _, peerURL := twoFarms(t, Config{Workers: 2})
	types := []game.Type{0, 0, 0, 0}

	sess, err := coord.CreateSession(clusterSpec(peerURL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.SubmitTypes(sess.ID, types); err != nil {
		t.Fatal(err)
	}
	// Chaos alongside the play: sever everything both daemons have, a
	// few times, while the session runs.
	dropped := 0
	for i := 0; i < 200; i++ {
		dropped += coord.DropClusterConns()
		dropped += peer.DropClusterConns()
		select {
		case <-sess.Done():
			i = 200
		case <-time.After(500 * time.Microsecond):
		}
	}
	select {
	case <-sess.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("session did not terminate after conn drops")
	}
	v := sess.Snapshot()
	if v.State != StateDone || v.Deadlock {
		t.Fatalf("post-chaos session %+v", v)
	}
	if want := []int{0, 0, 0, 0}; !reflect.DeepEqual(v.Profile, want) {
		t.Fatalf("post-chaos profile %v, want %v", v.Profile, want)
	}
	if dropped == 0 {
		t.Log("no connections were live during the chaos window (play finished first); outcome still verified")
	}
}

// TestCleanTeardownRecordsNoDialErrors: a finished play quiesces every
// node before stopping any, so no surviving link redials a listener that
// closed with its node. Clean plays, across two daemons and on one,
// record no dial errors and no redials on either daemon.
func TestCleanTeardownRecordsNoDialErrors(t *testing.T) {
	coord, peer, _, peerURL := twoFarms(t, Config{Workers: 2})
	types := []game.Type{0, 0, 0, 0}
	for i := 0; i < 10; i++ {
		if v := playCluster(t, coord, clusterSpec(peerURL), types); v.State != StateDone {
			t.Fatalf("two-daemon play %d ended %s (%s)", i, v.State, v.Error)
		}
	}
	local := Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2", Backend: "wire"}
	for i := 0; i < 20; i++ {
		if v := playCluster(t, coord, local, types); v.State != StateDone {
			t.Fatalf("single-daemon play %d ended %s (%s)", i, v.State, v.Error)
		}
	}
	for _, d := range []struct {
		name string
		svc  *Service
	}{{"coordinator", coord}, {"peer", peer}} {
		if st := d.svc.clusterLinkStats(); st.DialErrors != 0 || st.Redials != 0 {
			t.Errorf("%s: %d dial errors, %d redials after clean plays", d.name, st.DialErrors, st.Redials)
		}
	}
}

// simProfile plays the canonical cluster game on the in-process sim
// backend: the outcome every cluster play of it must reproduce.
func simProfile(t *testing.T, types []game.Type) View {
	t.Helper()
	sim := newFarm(t, Config{Workers: 1})
	defer sim.Close()
	sv, err := sim.CreateSession(Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.SubmitTypes(sv.ID, types); err != nil {
		t.Fatal(err)
	}
	<-sv.Done()
	v := sv.Snapshot()
	if v.State != StateDone {
		t.Fatalf("sim reference ended %s", v.State)
	}
	return v
}

// TestCleanTeardownThreeDaemons: with players on two peer daemons, the
// coordinator finishes the peers one after the other. The later peer's
// links must not take the earlier peer's finish for a fault, so no
// daemon of the three records a dial error or a redial.
func TestCleanTeardownThreeDaemons(t *testing.T) {
	coord, peerA, _, urlA := twoFarms(t, Config{Workers: 2})
	peerB := newFarm(t, Config{Workers: 2})
	tsB := httptest.NewServer(peerB.Handler())
	t.Cleanup(tsB.Close)
	spec := Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2", Peers: []api.PeerSpec{
		{Index: 2, Addr: urlA},
		{Index: 3, Addr: tsB.URL},
	}}
	want := []int{0, 0, 0, 0}
	for i := 0; i < 10; i++ {
		if v := playCluster(t, coord, spec, make([]game.Type, 4)); v.State != StateDone || !reflect.DeepEqual(v.Profile, want) {
			t.Fatalf("three-daemon play %d ended %s with profile %v (%s)", i, v.State, v.Profile, v.Error)
		}
	}
	for _, d := range []struct {
		name string
		svc  *Service
	}{{"coordinator", coord}, {"peer A", peerA}, {"peer B", peerB}} {
		if st := d.svc.clusterLinkStats(); st.DialErrors != 0 || st.Redials != 0 {
			t.Errorf("%s: %d dial errors, %d redials after clean plays", d.name, st.DialErrors, st.Redials)
		}
	}
}

// TestWarmClusterPlaysDialNothing: once a first play has left its
// connections at rest on both daemons' endpoints, twenty more
// two-daemon plays open no TCP connection, and every one ends with the
// single-process outcome.
func TestWarmClusterPlaysDialNothing(t *testing.T) {
	coord, peer, _, peerURL := twoFarms(t, Config{Workers: 2})
	types := []game.Type{0, 0, 0, 0}
	want := simProfile(t, types)
	dials := func() int64 { return coord.clusterEP.Stats().Dials + peer.clusterEP.Stats().Dials }
	for i := 0; i < 21; i++ {
		if i == 1 {
			if d := dials(); d == 0 {
				t.Fatal("the first play dialed nothing")
			}
		}
		before := dials()
		v := playCluster(t, coord, clusterSpec(peerURL), types)
		if v.State != StateDone || !reflect.DeepEqual(v.Profile, want.Profile) || !reflect.DeepEqual(v.Utilities, want.Utilities) {
			t.Fatalf("play %d ended %s with profile %v utilities %v; sim: %v %v (%s)",
				i, v.State, v.Profile, v.Utilities, want.Profile, want.Utilities, v.Error)
		}
		if d := dials() - before; i > 0 && d != 0 {
			t.Fatalf("warm play %d dialed %d connections", i, d)
		}
	}
}

// TestClusterPlayAfterPeerConnsCloseOrRestart: the coordinator's
// connections at rest to a peer die when the peer closes its ends, or
// when the peer daemon restarts on a new address. The next play still
// succeeds, and replacing a dead connection counts no dial error and no
// redial.
func TestClusterPlayAfterPeerConnsCloseOrRestart(t *testing.T) {
	coord, peer, _, peerURL := twoFarms(t, Config{Workers: 2})
	types := []game.Type{0, 0, 0, 0}
	want := []int{0, 0, 0, 0}
	play := func(step, url string) {
		t.Helper()
		if v := playCluster(t, coord, clusterSpec(url), types); v.State != StateDone || !reflect.DeepEqual(v.Profile, want) {
			t.Fatalf("%s: play ended %s with profile %v (%s)", step, v.State, v.Profile, v.Error)
		}
	}
	play("warm-up", peerURL)
	if peer.DropClusterConns() == 0 {
		t.Fatal("the peer held no connections after a play")
	}
	play("after the peer closed its connections", peerURL)

	restarted := newFarm(t, Config{Workers: 2})
	ts := httptest.NewServer(restarted.Handler())
	t.Cleanup(ts.Close)
	peer.Close()
	play("after the peer restarted", ts.URL)
	for _, d := range []struct {
		name string
		svc  *Service
	}{{"coordinator", coord}, {"restarted peer", restarted}} {
		if st := d.svc.clusterLinkStats(); st.DialErrors != 0 || st.Redials != 0 {
			t.Errorf("%s: %d dial errors, %d redials", d.name, st.DialErrors, st.Redials)
		}
	}
}

// TestClusterJoinStartValidation covers the daemon-to-daemon error
// surface: unknown cluster ids, double joins, bad address tables.
func TestClusterJoinStartValidation(t *testing.T) {
	peer := newFarm(t, Config{Workers: 1})

	if _, err := peer.ClusterStart(api.ClusterStartRequest{ClusterID: "c-nope", Addrs: make([]string, 4)}); err == nil {
		t.Fatal("start of unknown cluster succeeded")
	}
	req := api.ClusterJoinRequest{
		ClusterID: "c-test",
		Spec:      Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2"},
		Types:     []int{0, 0, 0, 0},
		Players:   []int{2, 3},
		Seed:      11,
	}
	resp, err := peer.ClusterJoin(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Addrs) != 4 || resp.Addrs[2] == "" || resp.Addrs[3] == "" || resp.Addrs[0] != "" {
		t.Fatalf("join addrs %v", resp.Addrs)
	}
	if _, err := peer.ClusterJoin(req); err == nil {
		t.Fatal("double join succeeded")
	}
	if _, err := peer.ClusterStart(api.ClusterStartRequest{ClusterID: "c-test", Addrs: []string{"x"}}); err == nil {
		t.Fatal("short address table accepted")
	}
	// Release the parked play so the farm closes cleanly; a second
	// release is a no-op.
	if !peer.releaseClusterPlay("c-test") {
		t.Fatal("parked play not released")
	}
	if peer.releaseClusterPlay("c-test") {
		t.Fatal("double release reported a play")
	}

	// Bad joins: no players, bad index, bad types.
	bad := req
	bad.ClusterID, bad.Players = "c-a", nil
	if _, err := peer.ClusterJoin(bad); err == nil {
		t.Fatal("join with no players succeeded")
	}
	bad = req
	bad.ClusterID, bad.Players = "c-b", []int{7}
	if _, err := peer.ClusterJoin(bad); err == nil {
		t.Fatal("join with out-of-range player succeeded")
	}
	bad = req
	bad.ClusterID, bad.Types = "c-c", []int{0}
	if _, err := peer.ClusterJoin(bad); err == nil {
		t.Fatal("join with short types succeeded")
	}
}

// TestClusterStartRefusedOnceDraining: a start that arrives after
// shutdown has begun is refused with not_ready before it claims the
// play, so the play stays parked and Close releases it.
func TestClusterStartRefusedOnceDraining(t *testing.T) {
	peer := newFarm(t, Config{Workers: 1})
	join, err := peer.ClusterJoin(api.ClusterJoinRequest{
		ClusterID: "c-drain",
		Spec:      Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2"},
		Types:     []int{0, 0, 0, 0},
		Players:   []int{0, 1, 2, 3},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	peer.beginShutdown()
	_, err = peer.ClusterStart(api.ClusterStartRequest{ClusterID: "c-drain", Addrs: join.Addrs})
	if ae := apiError(err, api.CodeInternal); err == nil || ae.Code != api.CodeNotReady {
		t.Fatalf("start while draining = %v, want %s", err, api.CodeNotReady)
	}
	peer.clusterMu.Lock()
	started := peer.clusterPlays["c-drain"].started
	peer.clusterMu.Unlock()
	if started {
		t.Fatal("the refused start claimed the play")
	}
	peer.Close()
	if n := len(peer.clusterPlays); n != 0 {
		t.Fatalf("%d cluster plays left after Close", n)
	}
}

// TestConcurrentClusterJoinsConflict: of several joins of one cluster
// racing on a daemon, one succeeds and every other is a lifecycle
// conflict, whichever step finds the cluster taken.
func TestConcurrentClusterJoinsConflict(t *testing.T) {
	peer := newFarm(t, Config{Workers: 1})
	t.Cleanup(peer.Close)
	for round := 0; round < 20; round++ {
		req := api.ClusterJoinRequest{
			ClusterID: fmt.Sprintf("c-race-%d", round),
			Spec:      Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2"},
			Types:     []int{0, 0, 0, 0},
			Players:   []int{2, 3},
			Seed:      11,
		}
		errs := make(chan error, 4)
		for j := 0; j < cap(errs); j++ {
			go func() {
				_, err := peer.ClusterJoin(req)
				errs <- err
			}()
		}
		joined := 0
		for j := 0; j < cap(errs); j++ {
			switch err := <-errs; {
			case err == nil:
				joined++
			case !errors.Is(err, ErrConflict):
				t.Fatalf("round %d: a losing join failed with %v, want a conflict", round, err)
			}
		}
		if joined != 1 {
			t.Fatalf("round %d: %d joins succeeded, want 1", round, joined)
		}
		peer.releaseClusterPlay(req.ClusterID)
	}
}

// TestClusterSpecValidation covers the client-facing peers field.
func TestClusterSpecValidation(t *testing.T) {
	svc := newFarm(t, Config{Workers: 1})
	// Peers demand the wire backend.
	if _, err := svc.CreateSession(Spec{Backend: "sim", Peers: []api.PeerSpec{{Index: 1, Addr: "http://x"}}}); err == nil {
		t.Fatal("sim backend with peers accepted")
	}
	// Duplicate and out-of-range assignments are rejected.
	if _, err := svc.CreateSession(Spec{Peers: []api.PeerSpec{{Index: 1, Addr: "http://x"}, {Index: 1, Addr: "http://y"}}}); err == nil {
		t.Fatal("duplicate peer index accepted")
	}
	if _, err := svc.CreateSession(Spec{N: 4, K: 1, Variant: "4.2", Peers: []api.PeerSpec{{Index: 9, Addr: "http://x"}}}); err == nil {
		t.Fatal("out-of-range peer index accepted")
	}
	if _, err := svc.CreateSession(Spec{Peers: []api.PeerSpec{{Index: 1}}}); err == nil {
		t.Fatal("peer without address accepted")
	}
	// A valid peers spec defaults its backend to wire.
	sess, err := svc.CreateSession(Spec{Peers: []api.PeerSpec{{Index: 1, Addr: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Spec.Backend != "wire" {
		t.Fatalf("peers spec normalized to backend %q", sess.Spec.Backend)
	}
}

// TestStatsClusterNilWhenNeverClustered: a daemon
// that never clustered reports no cluster-link block at all, so clients
// (mediatorctl obs) can say "no cluster transport" instead of rendering
// an all-zero struct as if links existed.
func TestStatsClusterNilWhenNeverClustered(t *testing.T) {
	svc := newFarm(t, Config{Workers: 1})
	defer svc.Close()
	if st := svc.Stats(); st.Cluster != nil {
		t.Fatalf("Stats().Cluster = %+v, want nil on a never-clustered daemon", st.Cluster)
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

// TestClusterStartIsRetrySafe pins the synchronous start's retry
// contract. Two concurrent keyed starts of one joined play run it once:
// one executes, the other waits on its single-flight entry (or finds it
// cached) and replays the outcome. An unkeyed re-start while the play
// lingers replays the gathered result, and finish then releases it.
func TestClusterStartIsRetrySafe(t *testing.T) {
	peer, ts := httpFarm(t, Config{Workers: 2})
	const clusterID = "c-retry"
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
	req := api.ClusterStartRequest{ClusterID: clusterID, Addrs: join.Addrs}
	url := ts.URL + "/v1/cluster/start"
	checkResults := func(what string, out api.ClusterStartResponse) {
		t.Helper()
		if len(out.Results) != 4 {
			t.Fatalf("%s: results %+v", what, out.Results)
		}
		for _, r := range out.Results {
			if r.Error != "" || r.TimedOut || len(r.Move) == 0 {
				t.Fatalf("%s: player %d result %+v", what, r.Index, r)
			}
		}
	}

	// A coordinator of the old async start protocol is refused up front,
	// not left waiting for an event that never comes.
	oldStart := map[string]any{"cluster_id": clusterID, "addrs": join.Addrs, "async": true}
	if code, _ := postJSON(t, ts.Client(), url, oldStart, nil); code != http.StatusBadRequest {
		t.Fatalf("async:true start answered %d, want 400 invalid_argument", code)
	}

	outs := make([]api.ClusterStartResponse, 2)
	replayed := make([]bool, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postKeyed(t, ts.Client(), url, "cluster-start-"+clusterID, req, &outs[i])
			replayed[i] = resp.StatusCode == http.StatusOK && resp.Header.Get(api.IdempotencyReplayedHeader) == "true"
		}()
	}
	wg.Wait()
	for i, out := range outs {
		checkResults(fmt.Sprintf("keyed start %d", i), out)
	}
	if replayed[0] == replayed[1] {
		t.Fatalf("replayed flags %v: exactly one keyed start must replay", replayed)
	}
	if got := peer.Stats().ClusterPlaysHosted; got != 1 {
		t.Fatalf("two keyed starts hosted %d plays, want 1", got)
	}

	// The play lingers: an unkeyed re-start (a restarted coordinator
	// without the key) replays the gathered outcome instead of
	// conflicting.
	var again api.ClusterStartResponse
	if code, err := postJSON(t, ts.Client(), url, req, &again); err != nil || code != http.StatusOK {
		t.Fatalf("unkeyed re-start: %d %v", code, err)
	}
	checkResults("unkeyed re-start", again)
	if got := peer.Stats().ClusterPlaysHosted; got != 1 {
		t.Fatalf("re-start re-ran the play: hosted %d", got)
	}
	fin, err := peer.ClusterFinish(api.ClusterFinishRequest{ClusterID: clusterID})
	if err != nil || !fin.Released {
		t.Fatalf("finish: %+v %v", fin, err)
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

// TestGroupPeers pins the peer-grouping contract runCluster relies on:
// one join per distinct daemon, player
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

// TestClosedPeerNamedInError: a failed play names its faulty peer
// without any gossip view. The peer daemon is closed before the play,
// so the coordinator's join fails, and the session's error is an
// api.Error whose "peer" detail is that daemon's URL.
func TestClosedPeerNamedInError(t *testing.T) {
	coord := newFarm(t, Config{Workers: 1})
	peer := newFarm(t, Config{Workers: 1})
	ts := httptest.NewServer(peer.Handler())
	peerURL := ts.URL
	ts.Close()
	peer.Close()

	sess, err := coord.CreateSession(clusterSpec(peerURL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("session did not terminate")
	}
	if v := sess.Snapshot(); v.State != StateFailed {
		t.Fatalf("play against a closed peer ended %s", v.State)
	}
	sess.mu.Lock()
	playErr := sess.err
	sess.mu.Unlock()
	var ae *api.Error
	if !errors.As(playErr, &ae) {
		t.Fatalf("play error %v (%T) is not an api.Error", playErr, playErr)
	}
	if got := ae.Details["peer"]; got != peerURL {
		t.Fatalf("peer detail %q, want the closed daemon %q (error %v)", got, peerURL, ae)
	}
}

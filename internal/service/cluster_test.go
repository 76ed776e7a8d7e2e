package service

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
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
// and returns the terminal view.
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
	case <-time.After(120 * time.Second):
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

	// The peer co-hosted exactly one play and holds no parked state.
	if got := peer.Stats().ClusterPlaysHosted; got != 1 {
		t.Fatalf("peer hosted %d plays, want 1", got)
	}
	peer.clusterMu.Lock()
	parked := len(peer.clusterPlays)
	peer.clusterMu.Unlock()
	if parked != 0 {
		t.Fatalf("%d cluster plays still parked on the peer", parked)
	}
	// The coordinator's messages counters saw both daemons' traffic.
	if v.MsgsSent == 0 || v.MsgsDeliv == 0 {
		t.Fatalf("traffic counters empty: %+v", v)
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

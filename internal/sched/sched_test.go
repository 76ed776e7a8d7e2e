package sched

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"asyncmediator/api"
	"asyncmediator/internal/core"
)

func healthy(url string, self bool, queue, sessions int) Daemon {
	return Daemon{URL: url, Self: self, State: api.FleetPeerHealthy, QueueDepth: queue, LiveSessions: sessions}
}

// threeIdle is a coordinator plus two idle healthy peers.
func threeIdle() []Daemon {
	return []Daemon{
		healthy("http://a", true, 0, 0),
		healthy("http://b", false, 0, 0),
		healthy("http://c", false, 0, 0),
	}
}

func placed(t *testing.T, req Request, daemons []Daemon) Placement {
	t.Helper()
	pl, err := Place(req, daemons)
	if err != nil {
		t.Fatalf("Place(%+v): %v", req, err)
	}
	return pl
}

func TestSpreadIsEvenAndDeterministic(t *testing.T) {
	req := Request{N: 5, K: 0, T: 1, Floor: core.Exact41.Bound(0, 1)}
	first := placed(t, req, threeIdle())
	if first.Strategy != StrategySpread || first.Daemons != 3 || first.Floor != 5 {
		t.Fatalf("placement header: %+v", first)
	}
	// 5 players over 3 idle daemons: 2/2/1, coordinator first among
	// equals, then sorted URL — byte-stable across repeats.
	counts := map[string]int{}
	for _, a := range first.Assignments {
		counts[a.Addr] = len(a.Players)
	}
	if counts["http://a"] != 2 || counts["http://b"] != 2 || counts["http://c"] != 1 {
		t.Fatalf("spread uneven: %v", counts)
	}
	if len(first.Peers) != 3 {
		t.Fatalf("peers: %+v", first.Peers)
	}
	for i := 0; i < 20; i++ {
		again := placed(t, req, threeIdle())
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("placement not deterministic:\n%+v\n%+v", first, again)
		}
	}
	if first.Assignments[0].Addr != "http://a" || !first.Assignments[0].Self {
		t.Fatalf("coordinator not first: %+v", first.Assignments)
	}
}

func TestSpreadPrefersLeastLoaded(t *testing.T) {
	daemons := []Daemon{
		healthy("http://a", true, 4, 3), // loaded coordinator
		healthy("http://b", false, 0, 0),
		healthy("http://c", false, 0, 1),
	}
	pl := placed(t, Request{N: 4, K: 0, T: 1}, daemons)
	counts := map[string]int{}
	for _, a := range pl.Assignments {
		counts[a.Addr] = len(a.Players)
	}
	// b (load 0) and c (load 1) absorb everything before a (load 7).
	if counts["http://a"] != 0 || counts["http://b"] != 2 || counts["http://c"] != 2 {
		t.Fatalf("load-aware spread: %v", counts)
	}
}

func TestSingleDaemonDegeneratesToLocalPlay(t *testing.T) {
	for name, daemons := range map[string][]Daemon{
		"no fleet view": nil,
		"only self":     {healthy("http://a", true, 0, 0)},
		"all peers suspect": {
			healthy("http://a", true, 0, 0),
			{URL: "http://b", State: api.FleetPeerSuspect},
			{URL: "http://c", State: api.FleetPeerExpired},
			{URL: "http://d", State: api.FleetPeerUnknown},
		},
		"peers shedding": {
			healthy("http://a", true, 0, 0),
			{URL: "http://b", State: api.FleetPeerHealthy, Shedding: true},
		},
	} {
		pl, err := Place(Request{N: 5, T: 1}, daemons)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Daemons != 1 || len(pl.Peers) != 0 || !pl.Assignments[0].Self || len(pl.Assignments[0].Players) != 5 {
			t.Fatalf("%s: not an all-local placement: %+v", name, pl)
		}
		if pl.Degraded == "" {
			t.Fatalf("%s: one daemon holding all 5 players must report the t=1 budget shortfall", name)
		}
	}
}

// TestFloorBoundaryExactly places every theorem variant at its bound and
// one below: the floor is whatever core.Variant.Bound says (4k+4t+1,
// 3k+3t+1, 3k+4t+1, 2k+3t+1), n = Bound places and n = Bound-1 is
// ErrInfeasible, and the placement reports that floor.
func TestFloorBoundaryExactly(t *testing.T) {
	for _, v := range []core.Variant{core.Exact41, core.Epsilon42, core.Punish44, core.Punish45} {
		for _, tc := range []struct{ k, t int }{{0, 1}, {1, 0}, {1, 1}, {2, 3}} {
			floor := v.Bound(tc.k, tc.t)
			req := Request{N: floor - 1, K: tc.k, T: tc.t, Floor: floor}
			if _, err := Place(req, threeIdle()); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%v k=%d t=%d n=%d: err=%v, want ErrInfeasible", v, tc.k, tc.t, req.N, err)
			}
			req.N = floor
			pl, err := Place(req, threeIdle())
			if err != nil {
				t.Fatalf("%v k=%d t=%d n=%d (at floor): %v", v, tc.k, tc.t, floor, err)
			}
			if pl.Floor != floor {
				t.Fatalf("%v k=%d t=%d: placement floor %d, want %d", v, tc.k, tc.t, pl.Floor, floor)
			}
		}
	}
	if _, err := Place(Request{N: 0}, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := Place(Request{N: 5, T: -1}, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("t=-1: %v", err)
	}
}

func TestMinDaemonsRefusesUnderFloorFleet(t *testing.T) {
	daemons := []Daemon{
		healthy("http://a", true, 0, 0),
		healthy("http://b", false, 0, 0),
		{URL: "http://c", State: api.FleetPeerSuspect}, // not usable
	}
	_, err := Place(Request{N: 5, T: 1, MinDaemons: 3}, daemons)
	if !errors.Is(err, ErrUnderFloor) {
		t.Fatalf("err=%v, want ErrUnderFloor", err)
	}
	if pl, err := Place(Request{N: 5, T: 1, MinDaemons: 2}, daemons); err != nil || pl.Daemons != 2 {
		t.Fatalf("2-daemon floor on a 2-healthy fleet: %+v, %v", pl, err)
	}
}

func TestStrictRefusesWhenBudgetUnattainable(t *testing.T) {
	// 5 players on 3 daemons: the worst daemon holds 2 > t=1, so strict
	// refuses where spread degrades.
	if _, err := Place(Request{N: 5, T: 1, Strategy: StrategyStrict}, threeIdle()); !errors.Is(err, ErrUnderFloor) {
		t.Fatalf("strict on a thin fleet: %v, want ErrUnderFloor", err)
	}
	pl := placed(t, Request{N: 5, T: 1}, threeIdle())
	if pl.Degraded == "" {
		t.Fatal("spread must flag the same shortfall as degraded")
	}
	// One player per daemon satisfies strict.
	five := []Daemon{healthy("http://a", true, 0, 0)}
	for _, u := range []string{"http://b", "http://c", "http://d", "http://e"} {
		five = append(five, healthy(u, false, 0, 0))
	}
	pl = placed(t, Request{N: 5, T: 1, Strategy: StrategyStrict}, five)
	if pl.Daemons != 5 || pl.Degraded != "" {
		t.Fatalf("strict over 5 daemons: %+v", pl)
	}
}

func TestPackUsesOneDaemon(t *testing.T) {
	daemons := []Daemon{
		healthy("http://a", true, 5, 0),
		healthy("http://b", false, 0, 0),
	}
	pl := placed(t, Request{N: 5, T: 1, Strategy: StrategyPack}, daemons)
	if pl.Daemons != 1 || len(pl.Assignments) != 1 || pl.Assignments[0].Addr != "http://b" {
		t.Fatalf("pack did not fill the least-loaded daemon: %+v", pl)
	}
	if len(pl.Peers) != 5 {
		t.Fatalf("pack peers: %+v", pl.Peers)
	}
}

func TestFixedPeersArePinnedAndExcludedFromFreePlacement(t *testing.T) {
	daemons := threeIdle()
	fixed := []api.PeerSpec{{Index: 2, Addr: "http://z"}, {Index: 3, Addr: "http://z"}}
	pl := placed(t, Request{N: 5, T: 1, Fixed: fixed}, daemons)
	var z *api.PlacementAssignment
	for i := range pl.Assignments {
		if pl.Assignments[i].Addr == "http://z" {
			z = &pl.Assignments[i]
		}
	}
	// The pinned daemon keeps exactly its pinned players: it is not a
	// healthy candidate, so no free player lands there.
	if z == nil || !reflect.DeepEqual(z.Players, []int{2, 3}) {
		t.Fatalf("pinned assignment: %+v", pl.Assignments)
	}
	// Peers carries every remote assignment — the pins plus the free
	// players spread over b and c — indexed and ready for a SessionSpec.
	byIndex := map[int]string{}
	for _, p := range pl.Peers {
		byIndex[p.Index] = p.Addr
	}
	if len(pl.Peers) != 4 || byIndex[2] != "http://z" || byIndex[3] != "http://z" {
		t.Fatalf("peers: %+v", pl.Peers)
	}

	// Contradictory and out-of-range pins are infeasible.
	for name, bad := range map[string][]api.PeerSpec{
		"conflicting":  {{Index: 1, Addr: "http://x"}, {Index: 1, Addr: "http://y"}},
		"out of range": {{Index: 5, Addr: "http://x"}},
		"empty addr":   {{Index: 1}},
	} {
		if _, err := Place(Request{N: 5, T: 1, Fixed: bad}, daemons); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s pins: %v, want ErrInfeasible", name, err)
		}
	}
}

func TestUnknownStrategyIsInfeasible(t *testing.T) {
	if _, err := Place(Request{N: 5, T: 1, Strategy: "chaos"}, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err=%v", err)
	}
}

func TestCandidatesFromFleetView(t *testing.T) {
	v := api.FleetView{Peers: []api.FleetPeer{
		{Addr: "http://a", Self: true, State: api.FleetPeerHealthy, QueueDepth: 2, LiveSessions: 1},
		{Addr: "http://b", State: api.FleetPeerSuspect},
		{State: api.FleetPeerUnknown}, // never heard from: no addr
	}}
	cs := Candidates(v)
	if len(cs) != 2 || !cs[0].Self || cs[0].QueueDepth != 2 || cs[1].State != api.FleetPeerSuspect {
		t.Fatalf("candidates: %+v", cs)
	}
}

// TestTieBreakIsSortedURL pins the documented determinism contract: at
// equal load the coordinator wins, then lexicographically smaller URLs.
func TestTieBreakIsSortedURL(t *testing.T) {
	daemons := []Daemon{
		healthy("http://m", false, 0, 0),
		healthy("http://z", true, 0, 0),
		healthy("http://b", false, 0, 0),
	}
	pl := placed(t, Request{N: 3, T: 0, K: 0}, daemons)
	got := make([]string, 0, 3)
	for _, a := range pl.Assignments {
		got = append(got, fmt.Sprintf("%s=%d", a.Addr, len(a.Players)))
	}
	want := []string{"http://z=1", "http://b=1", "http://m=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie-break order: %v, want %v", got, want)
	}
}

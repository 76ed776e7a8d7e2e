package service

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"asyncmediator/internal/game"
)

// newFarm boots a farm or fails the test.
func newFarm(t testing.TB, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestSpecDefaultsToServiceFreeConfiguration(t *testing.T) {
	var spec Spec
	normalizeSpec(&spec)
	if spec.Game != "section64" || spec.N != 5 || spec.K != 0 || spec.T != 1 || spec.Variant != "4.1" {
		t.Fatalf("unexpected defaults: %+v", spec)
	}
	p, err := buildParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The default serving configuration is the n > 4t asynchronous variant.
	if p.Game.N <= 4*p.T {
		t.Fatalf("default config violates n > 4t: n=%d t=%d", p.Game.N, p.T)
	}
}

func TestRegistryCreateValidatesAndDerivesSeeds(t *testing.T) {
	r := NewRegistry(100, 0, 0, nil)
	s1, err := r.Create(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Create(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID == s2.ID {
		t.Fatalf("duplicate ids: %s", s1.ID)
	}
	if s1.Seed() == s2.Seed() {
		t.Fatalf("sessions share seed %d", s1.Seed())
	}
	if s1.Seed() != 101 || s2.Seed() != 102 {
		t.Fatalf("seeds not derived from base: %d, %d", s1.Seed(), s2.Seed())
	}
	// Theorem bound violations are rejected at creation.
	if _, err := r.Create(Spec{N: 4, K: 0, T: 1, Variant: "4.1"}); err == nil {
		t.Fatal("n=4, t=1 must violate Theorem 4.1's n > 4t")
	}
	// Player-count cap.
	if _, err := r.Create(Spec{N: 100}); err == nil {
		t.Fatal("n above MaxN must be rejected")
	}
	// Unknown knobs.
	for _, bad := range []Spec{
		{Game: "poker"}, {Scheduler: "warp"}, {Backend: "quantum"}, {Variant: "9.9"},
	} {
		if _, err := r.Create(bad); err == nil {
			t.Fatalf("spec %+v must be rejected", bad)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	svc := newFarm(t, Config{Workers: 2})
	defer svc.Close()
	sess, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.stateNow(); st != StateAwaitingTypes {
		t.Fatalf("fresh session in state %s", st)
	}
	// Wrong arity and out-of-range types are rejected.
	if err := sess.SubmitTypes(make([]game.Type, 3)); err == nil {
		t.Fatal("short type profile accepted")
	}
	if err := sess.SubmitTypes([]game.Type{9, 0, 0, 0, 0}); err == nil {
		t.Fatal("out-of-range type accepted")
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err)
	}
	// Double submission is rejected.
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err == nil {
		t.Fatal("double type submission accepted")
	}
	<-sess.Done()
	v := sess.Snapshot()
	if v.State != StateDone {
		t.Fatalf("session ended in %s (%s)", v.State, v.Error)
	}
	if len(v.Profile) != 5 || v.Deadlock {
		t.Fatalf("bad outcome: %+v", v)
	}
	if v.MsgsSent == 0 || v.Steps == 0 {
		t.Fatalf("stats not recorded: %+v", v)
	}
	if _, err := svc.SubmitTypes("s-999999", make([]game.Type, 5)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSessionDeterministicReplay(t *testing.T) {
	// Two farms, same base seed: session s-000001 must produce identical
	// outcomes and identical message counts.
	run := func() View {
		svc := newFarm(t, Config{Workers: 1, BaseSeed: 42})
		defer svc.Close()
		sess, err := svc.CreateSession(Spec{Scheduler: "random"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
			t.Fatal(err)
		}
		<-sess.Done()
		return sess.Snapshot()
	}
	a, b := run(), run()
	if a.Seed != b.Seed || a.MsgsSent != b.MsgsSent || a.Steps != b.Steps ||
		fmt.Sprint(a.Profile) != fmt.Sprint(b.Profile) {
		t.Fatalf("replay diverged:\n a=%+v\n b=%+v", a, b)
	}
}

func TestFarmBackpressureSurfacesQueueFull(t *testing.T) {
	// A farm whose single worker is wedged and whose queue holds one
	// session must reject the third submission with ErrQueueFull and roll
	// the session back so the client can resubmit after backoff.
	svc := newFarm(t, Config{Workers: 1, QueueDepth: 1})
	defer svc.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if err := svc.pool.TrySubmit(func() {
		started <- struct{}{}
		<-block
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty
	fill, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(fill.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err) // fills the queue
	}
	sess, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if st := sess.stateNow(); st != StateAwaitingTypes {
		t.Fatalf("rejected session not rolled back: %s", st)
	}
}

func TestConsensusGameSessions(t *testing.T) {
	svc := newFarm(t, Config{Workers: 4})
	defer svc.Close()
	// n=5, k=0, t=1 consensus under Theorem 4.1: players agree on the
	// majority of their private bits.
	sess, err := svc.CreateSession(Spec{Game: "consensus", N: 5, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	types := []game.Type{1, 1, 0, 1, 0} // majority 1
	if _, err := svc.SubmitTypes(sess.ID, types); err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	v := sess.Snapshot()
	if v.State != StateDone {
		t.Fatalf("consensus session ended in %s (%s)", v.State, v.Error)
	}
	for i, a := range v.Profile {
		if a != 1 {
			t.Fatalf("player %d played %d, want majority bit 1 (profile %v)", i, a, v.Profile)
		}
	}
}

func TestWireBackendSession(t *testing.T) {
	if testing.Short() {
		t.Skip("wire backend spins a real TCP mesh")
	}
	svc := newFarm(t, Config{Workers: 2})
	defer svc.Close()
	// Theorem 4.2 at its bound n=4: a real loopback mesh, OS-scheduled.
	sess, err := svc.CreateSession(Spec{N: 4, K: 1, T: 0, Variant: "4.2", Backend: "wire"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	v := sess.Snapshot()
	if v.State != StateDone {
		t.Fatalf("wire session ended in %s (%s)", v.State, v.Error)
	}
	if len(v.Profile) != 4 {
		t.Fatalf("bad profile %v", v.Profile)
	}
	first := v.Profile[0]
	for i, a := range v.Profile {
		if a != first {
			t.Fatalf("wire players disagree at %d: %v", i, v.Profile)
		}
	}
	if v.MsgsSent == 0 {
		t.Fatal("wire stats not collected")
	}
}

// TestWireSessionIsClusterPlay pins that a wire play without peers runs
// on the cluster transport like any co-hosted play: the chaos hook
// reaches its links mid-play, the play still ends done with the
// unanimous profile, and its frames count in the cluster stats.
func TestWireSessionIsClusterPlay(t *testing.T) {
	svc := newFarm(t, Config{Workers: 2})
	defer svc.Close()
	want := []int{0, 0, 0, 0}
	dropped := 0
	// A play can finish before any link is live; retry until a drop
	// lands mid-play.
	for attempt := 0; attempt < 10 && dropped == 0; attempt++ {
		sess, err := svc.CreateSession(Spec{Game: "consensus", N: 4, K: 1, Variant: "4.2", Backend: "wire"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
			t.Fatal(err)
		}
		for running := true; running; {
			if dropped == 0 {
				dropped = svc.DropClusterConns()
			}
			select {
			case <-sess.Done():
				running = false
			case <-time.After(100 * time.Microsecond):
			}
		}
		v := sess.Snapshot()
		if v.State != StateDone || v.Deadlock || !reflect.DeepEqual(v.Profile, want) {
			t.Fatalf("wire play under drops: state %s deadlock %v profile %v (%s)", v.State, v.Deadlock, v.Profile, v.Error)
		}
	}
	if dropped == 0 {
		t.Fatal("DropClusterConns never reached a live link of a single-daemon wire play")
	}
	st := svc.Stats().Cluster
	if st == nil || st.Sent == 0 {
		t.Fatalf("Stats().Cluster = %+v, want the wire play's frames counted", st)
	}
}

func TestGracefulCloseDrainsQueuedSessions(t *testing.T) {
	svc := newFarm(t, Config{Workers: 2})
	const n = 24
	sessions := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		sess, err := svc.CreateSession(Spec{N: 4, K: 1, T: 0, Variant: "4.2"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 4)); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	svc.Close() // must block until every queued session ran
	for _, sess := range sessions {
		if st := sess.stateNow(); st != StateDone {
			t.Fatalf("session %s left in %s after Close", sess.ID, st)
		}
	}
	if tot := svc.Stats().StatsTotals; tot.Sessions != n {
		t.Fatalf("sink saw %d sessions, want %d", tot.Sessions, n)
	}
}

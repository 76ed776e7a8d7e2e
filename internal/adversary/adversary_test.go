package adversary

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/avss"
	"asyncmediator/internal/core"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/proto"
)

// countRewrites wraps rw's hook so that every payload it replaces with a
// different envelope adds one to *n. A corruption test checks *n > 0: a
// hook that matches no payload corrupts nothing, and the run it guards
// would pass for the wrong reason.
func countRewrites(rw *Rewrite, n *int) *Rewrite {
	hook := rw.Hook
	rw.Hook = func(to async.PID, p any) (any, bool) {
		q, ok := hook(to, p)
		if e, isEnv := q.(*proto.Envelope); isEnv && e != p {
			*n++
		}
		return q, ok
	}
	return rw
}

func sec64Params(t *testing.T, n, k, tf int, v core.Variant) core.Params {
	t.Helper()
	g, err := game.Section64Game(n, k)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := mediator.Section64Circuit(n)
	if err != nil {
		t.Fatal(err)
	}
	pun := make(game.Profile, n)
	for i := range pun {
		pun[i] = game.Bottom
	}
	return core.Params{
		Game: g, Circuit: circ, K: k, T: tf,
		Variant: v, Approach: game.ApproachAH,
		Punishment: pun, Epsilon: 0.1, CoinSeed: 4242,
	}
}

func TestCrashToleratedAtTheorem41(t *testing.T) {
	// n=5, k=0, t=1: one crashed player; honest players still implement
	// the lottery (t-immunity's liveness half).
	p := sec64Params(t, 5, 0, 1, core.Exact41)
	types := make([]game.Type, 5)
	for seed := int64(0); seed < 4; seed++ {
		prof, res, err := core.Run(core.RunConfig{
			Params: p, Types: types, Seed: seed,
			Override: map[int]async.Process{2: Crash{}},
			MaxSteps: 20_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		for i, a := range prof {
			if i == 2 {
				continue // crashed player's move resolved by will/default
			}
			if a != 0 && a != 1 {
				t.Fatalf("seed %d: honest player %d played %v", seed, i, a)
			}
			if a != prof[0] {
				t.Fatalf("seed %d: honest players disagree: %v", seed, prof)
			}
		}
	}
}

func TestCorruptOpensToleratedAtTheorem41(t *testing.T) {
	// A deviator corrupts every opening share it sends; online error
	// correction absorbs it (t-immunity).
	p := sec64Params(t, 5, 0, 1, core.Exact41)
	types := make([]game.Type, 5)
	for seed := int64(0); seed < 4; seed++ {
		honest, err := core.NewPlayer(p, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		rewrites := 0
		prof, res, err := core.Run(core.RunConfig{
			Params: p, Types: types, Seed: seed,
			Override: map[int]async.Process{2: countRewrites(CorruptOpens(honest, 7), &rewrites)},
			MaxSteps: 20_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatalf("seed %d: deadlock under share corruption", seed)
		}
		if rewrites == 0 {
			t.Fatalf("seed %d: CorruptOpens rewrote no share", seed)
		}
		for i, a := range prof {
			if i == 2 {
				continue
			}
			if a != prof[0] || (a != 0 && a != 1) {
				t.Fatalf("seed %d: profile %v", seed, prof)
			}
		}
	}
}

// corruptAVSSPoints wraps an honest process and corrupts the pairwise
// check points it sends during verifiable secret sharing, attacking other
// parties' row verification: every component of a point vector gets the
// offset, in a copy, since the sent vector is shared like its envelope.
func corruptAVSSPoints(inner async.Process, offset field.Element) *Rewrite {
	return &Rewrite{
		Inner: inner,
		Hook: func(to async.PID, payload any) (any, bool) {
			env, ok := payload.(*proto.Envelope)
			if !ok || env == nil {
				return payload, true
			}
			pt, ok := env.Body.(avss.MsgPoint)
			if !ok {
				return payload, true
			}
			v := make([]field.Element, len(pt.V))
			for k, x := range pt.V {
				v[k] = x.Add(offset)
			}
			return rewritten(env, avss.MsgPoint{V: v}), true
		},
	}
}

func TestCorruptAVSSPointsTolerated(t *testing.T) {
	p := sec64Params(t, 5, 0, 1, core.Exact41)
	types := make([]game.Type, 5)
	honest, err := core.NewPlayer(p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rewrites := 0
	prof, res, err := core.Run(core.RunConfig{
		Params: p, Types: types, Seed: 9,
		Override: map[int]async.Process{4: countRewrites(corruptAVSSPoints(honest, 3), &rewrites)},
		MaxSteps: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlock under AVSS point corruption")
	}
	if rewrites == 0 {
		t.Fatal("corruptAVSSPoints rewrote no point")
	}
	for i := 0; i < 4; i++ {
		if prof[i] != prof[0] {
			t.Fatalf("profile %v", prof)
		}
	}
}

// TestCorruptHooksCopyBeforeRewrite: a corrupting hook returns a new
// envelope carrying the corrupted body and leaves the one it was handed
// untouched, point vector included, since a broadcast shares that
// envelope (and its body) with every other recipient. Bodies that carry
// a slice are compared with reflect.DeepEqual, never with ==.
func TestCorruptHooksCopyBeforeRewrite(t *testing.T) {
	sentVec := []field.Element{5, 6}
	cases := []struct {
		rw         *Rewrite
		body, want any
	}{
		{CorruptOpens(Crash{}, 7), avss.MsgShare{V: 5}, avss.MsgShare{V: 12}},
		{corruptAVSSPoints(Crash{}, 3), avss.MsgPoint{V: sentVec}, avss.MsgPoint{V: []field.Element{8, 9}}},
	}
	for _, c := range cases {
		sent := &proto.Envelope{Instance: "i", Body: c.body}
		got, ok := c.rw.Hook(0, sent)
		e, isEnv := got.(*proto.Envelope)
		if !ok || !isEnv || e == sent || e.Instance != "i" || !reflect.DeepEqual(e.Body, c.want) {
			t.Errorf("%T: hook returned %#v, want a copy carrying %#v", c.body, got, c.want)
		}
		if !reflect.DeepEqual(sent.Body, c.body) {
			t.Errorf("%T: hook wrote through the shared envelope: %#v", c.body, sent.Body)
		}
	}
	if !slices.Equal(sentVec, []field.Element{5, 6}) {
		t.Errorf("CorruptAVSSPoints wrote through the sent point vector: %v", sentVec)
	}
}

func TestMuteAfterStallsButWillsResolve(t *testing.T) {
	// A player goes silent mid-protocol. At Theorem 4.1 thresholds the
	// rest finish without it.
	p := sec64Params(t, 5, 0, 1, core.Exact41)
	types := make([]game.Type, 5)
	honest, err := core.NewPlayer(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := core.Run(core.RunConfig{
		Params: p, Types: types, Seed: 11,
		Override: map[int]async.Process{1: MuteAfter(honest, 10)},
		MaxSteps: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range prof {
		if i == 1 {
			continue
		}
		if a != prof[0] || (a != 0 && a != 1) {
			t.Fatalf("profile %v", prof)
		}
	}
}

// --- The Section 6.4 attack (E6) ---

// runLeaky plays the Section 6.4 mediator game with a coalition of two
// HintPoolers (players 0 and 1; indices of different parity) and the
// colluding BaitScheduler. Returns the coalition's realized utility.
func runLeaky(t *testing.T, seed int64) float64 {
	t.Helper()
	n, k := 4, 1
	g, err := game.Section64Game(n, k)
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard()
	procs := make([]async.Process, n+1)
	for i := 0; i < n; i++ {
		if i <= 1 {
			procs[i] = &HintPooler{
				Mediator: async.PID(n), Index: i, Board: board, G: g, Will: game.Bottom,
			}
			continue
		}
		w := game.Bottom
		procs[i] = &mediator.HonestPlayer{Mediator: async.PID(n), Type: 0, G: g, Will: &w}
	}
	procs[n] = mediator.NewLeaky(n)
	sched := &BaitScheduler{
		Base:     &async.RoundRobinScheduler{},
		Mediator: async.PID(n),
		Board:    board,
	}
	rt, err := async.New(async.Config{
		Procs: procs, Players: n, Scheduler: sched, Seed: seed, Relaxed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	prof := mediator.ResolveMoves(g, make([]game.Type, n), res, game.ApproachAH)
	u := g.Utility(make([]game.Type, n), prof)
	return u[0]
}

func TestSection64AttackGains(t *testing.T) {
	// The paper's numbers: honest value 1.5; with the leaky mediator the
	// coalition forces 1.1 when b=0 and 2 when b=1, for an expected 1.55.
	trials := 400
	sum := 0.0
	for seed := int64(0); seed < int64(trials); seed++ {
		sum += runLeaky(t, seed)
	}
	mean := sum / float64(trials)
	if math.Abs(mean-1.55) > 0.06 {
		t.Fatalf("coalition value %v, want ~1.55 (paper Section 6.4)", mean)
	}
	if mean <= 1.5 {
		t.Fatalf("attack should beat the equilibrium value 1.5, got %v", mean)
	}
}

func TestSection64FixedByMinimallyInformative(t *testing.T) {
	// Same coalition + scheduler against the minimally informative
	// mediator: no hints exist, the coalition never decodes b, and the
	// scheduler's held batch is eventually released. Value returns to 1.5.
	n, k := 4, 1
	g, err := game.Section64Game(n, k)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := mediator.Section64Circuit(n)
	if err != nil {
		t.Fatal(err)
	}
	trials := 400
	sum := 0.0
	for seed := int64(0); seed < int64(trials); seed++ {
		board := NewBoard()
		procs := make([]async.Process, n+1)
		for i := 0; i < n; i++ {
			if i <= 1 {
				procs[i] = &HintPooler{Mediator: async.PID(n), Index: i, Board: board, G: g, Will: game.Bottom}
				continue
			}
			w := game.Bottom
			procs[i] = &mediator.HonestPlayer{Mediator: async.PID(n), Type: 0, G: g, Will: &w}
		}
		procs[n] = &mediator.CircuitMediator{
			N: n, Circ: circ, WaitFor: n - k, Rounds: 1, NumTypes: g.NumTypes,
		}
		sched := &BaitScheduler{Base: &async.RoundRobinScheduler{}, Mediator: async.PID(n), Board: board}
		rt, err := async.New(async.Config{
			Procs: procs, Players: n, Scheduler: sched, Seed: seed, Relaxed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		prof := mediator.ResolveMoves(g, make([]game.Type, n), res, game.ApproachAH)
		sum += g.Utility(make([]game.Type, n), prof)[0]
	}
	mean := sum / float64(trials)
	if math.Abs(mean-1.5) > 0.06 {
		t.Fatalf("minimally informative mediator value %v, want ~1.5", mean)
	}
}

func TestBoardDecideOnce(t *testing.T) {
	b := NewBoard()
	b.Decide(true)
	b.Decide(false)
	if b.Bait == nil || !*b.Bait {
		t.Fatal("first decision must stand")
	}
}

package mediator

import (
	"math"
	"math/rand"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
)

func TestChickenCE(t *testing.T) {
	g := game.Chicken()
	circ, err := SelectCircuit(2, game.ChickenCETable())
	if err != nil {
		t.Fatal(err)
	}
	o := game.NewOutcome()
	for seed := int64(0); seed < 400; seed++ {
		p, _, err := Run(Config{
			Game: g, Circuit: circ, Types: []game.Type{0, 0},
			Approach: game.ApproachAH, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		o.Add(p)
	}
	// Expected CE distribution: (0,1) 1/4, (1,0) 1/4, (1,1) 1/2.
	if p := o.Prob(game.Profile{0, 1}); math.Abs(p-0.25) > 0.08 {
		t.Fatalf("(D,S) prob %v, want ~0.25", p)
	}
	if p := o.Prob(game.Profile{1, 1}); math.Abs(p-0.5) > 0.08 {
		t.Fatalf("(S,S) prob %v, want ~0.5", p)
	}
	if p := o.Prob(game.Profile{0, 0}); p != 0 {
		t.Fatalf("(D,D) has positive probability %v", p)
	}
	u := g.ExpectedUtility([]game.Type{0, 0}, o)
	if math.Abs(u[0]-5.25) > 0.3 {
		t.Fatalf("CE value %v, want ~5.25", u[0])
	}
}

func TestCanonicalRounds(t *testing.T) {
	// With Rounds=R the mediator exchanges ~2Rn messages; with Rounds=1
	// (weak implementation) roughly 2n.
	g := game.Chicken()
	circ, err := SelectCircuit(2, game.ChickenCETable())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, rounds := range []int{1, 3, 6} {
		_, res, err := Run(Config{
			Game: g, Circuit: circ, Types: []game.Type{0, 0},
			Approach: game.ApproachAH, Rounds: rounds, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts[rounds] = res.Stats.MessagesSent
	}
	if !(counts[1] < counts[3] && counts[3] < counts[6]) {
		t.Fatalf("message counts should grow with rounds: %v", counts)
	}
	// Linear shape: 6 rounds should be roughly twice 3 rounds.
	ratio := float64(counts[6]) / float64(counts[3])
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("rounds scaling ratio %v, want ~2", ratio)
	}
}

func TestMajorityCircuit(t *testing.T) {
	for _, n := range []int{3, 5} {
		circ, err := MajorityCircuit(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for mask := 0; mask < 1<<n; mask++ {
			inputs := make([][]field.Element, n)
			ones := 0
			for i := 0; i < n; i++ {
				bit := (mask >> i) & 1
				ones += bit
				inputs[i] = []field.Element{field.Element(bit)}
			}
			outs, err := circ.Eval(inputs, rng)
			if err != nil {
				t.Fatal(err)
			}
			want := field.Element(0)
			if 2*ones > n {
				want = 1
			}
			for _, o := range outs {
				if o != want {
					t.Fatalf("n=%d mask=%b: got %v, want %v", n, mask, o, want)
				}
			}
		}
	}
}

func TestMajorityMediatorGame(t *testing.T) {
	n := 3
	g := game.ConsensusGame(n)
	circ, err := MajorityCircuit(n)
	if err != nil {
		t.Fatal(err)
	}
	types := []game.Type{1, 0, 1} // majority 1
	p, _, err := Run(Config{
		Game: g, Circuit: circ, Types: types, Approach: game.ApproachAH, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range p {
		if a != 1 {
			t.Fatalf("player %d decided %v, want majority 1 (profile %v)", i, a, p)
		}
	}
	u := g.Utility(types, p)
	if u[0] != 2 {
		t.Fatalf("utility %v, want 2", u[0])
	}
}

func TestMatchingCircuit(t *testing.T) {
	circ, err := MatchingCircuit()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Agreement: both prefer venue 1.
	outs, err := circ.Eval([][]field.Element{{1}, {1}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != 1 || outs[1] != 1 {
		t.Fatalf("agreeing types: got %v", outs)
	}
	// Disagreement: coin flip, but always equal for both players.
	saw := map[field.Element]bool{}
	for i := 0; i < 30; i++ {
		outs, err := circ.Eval([][]field.Element{{0}, {1}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if outs[0] != outs[1] {
			t.Fatalf("venues differ: %v", outs)
		}
		saw[outs[0]] = true
	}
	if !saw[0] || !saw[1] {
		t.Fatalf("coin flip never varied: %v", saw)
	}
}

func TestMatchingMediatorGame(t *testing.T) {
	g := game.MatchingGame()
	circ, err := MatchingCircuit()
	if err != nil {
		t.Fatal(err)
	}
	// Agreeing types must always meet at the preferred venue.
	p, _, err := Run(Config{
		Game: g, Circuit: circ, Types: []game.Type{1, 1}, Approach: game.ApproachAH, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 1 || p[1] != 1 {
		t.Fatalf("profile %v, want (1,1)", p)
	}
}

func TestInvalidTypeRejected(t *testing.T) {
	// A player reporting an out-of-range type is treated as invalid; with
	// WaitFor=n the mediator never gets n complete sets, so the run
	// deadlocks and wills fire.
	g := game.Chicken()
	circ, err := SelectCircuit(2, game.ChickenCETable())
	if err != nil {
		t.Fatal(err)
	}
	bad := &typeLiar{mediator: 2, x: 99}
	w0 := game.Action(1)
	p, res, err := Run(Config{
		Game: g, Circuit: circ, Types: []game.Type{0, 0},
		Approach: game.ApproachAH,
		Wills:    map[int]game.Action{0: w0, 1: 1},
		Override: map[int]async.Process{1: bad},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected deadlock with an invalid reporter")
	}
	if p[0] != 1 {
		t.Fatalf("player 0's will should fire, got %v", p[0])
	}
}

type typeLiar struct {
	mediator async.PID
	x        field.Element
}

func (l *typeLiar) Start(env *async.Env) {
	env.Send(l.mediator, MsgInput{Round: 0, X: l.x})
}
func (l *typeLiar) Deliver(env *async.Env, m async.Message) {}

func TestWaitForSubset(t *testing.T) {
	// With WaitFor = n-1 the mediator decides without the crashed player,
	// substituting the default input.
	n := 3
	g := game.ConsensusGame(n)
	circ, err := MajorityCircuit(n)
	if err != nil {
		t.Fatal(err)
	}
	types := []game.Type{1, 1, 0}
	p, _, err := Run(Config{
		Game: g, Circuit: circ, Types: types,
		Approach: game.ApproachDefaultMove,
		WaitFor:  n - 1,
		Override: map[int]async.Process{2: silentProc{}},
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Players 0,1 reported 1; player 2 defaulted to 0: majority stays 1.
	if p[0] != 1 || p[1] != 1 {
		t.Fatalf("profile %v", p)
	}
	// Player 2 never decided; default-move approach gives its type-default.
	if p[2] != game.Action(types[2]) {
		t.Fatalf("default move for player 2: got %v", p[2])
	}
}

type silentProc struct{}

func (silentProc) Start(env *async.Env)                    {}
func (silentProc) Deliver(env *async.Env, m async.Message) {}

func TestLeakyMediatorHonestRun(t *testing.T) {
	// With honest players and a fair scheduler, the leaky mediator just
	// implements the b-lottery: everyone plays the same bit.
	n, k := 4, 1
	g, err := game.Section64Game(n, k)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[game.Action]int{}
	for seed := int64(0); seed < 60; seed++ {
		procs := make([]async.Process, n+1)
		for i := 0; i < n; i++ {
			procs[i] = &HonestPlayer{Mediator: async.PID(n), Type: 0, G: g}
		}
		procs[n] = NewLeaky(n)
		rt, err := async.New(async.Config{
			Procs: procs, Players: n, Scheduler: async.NewRandomScheduler(seed), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		prof := ResolveMoves(g, make([]game.Type, n), res, game.ApproachAH)
		first := prof[0]
		if first != 0 && first != 1 {
			t.Fatalf("seed %d: decided %v", seed, first)
		}
		for _, a := range prof {
			if a != first {
				t.Fatalf("seed %d: players disagree: %v", seed, prof)
			}
		}
		seen[first]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("b-lottery degenerate: %v", seen)
	}
}

func TestSection64CircuitUniform(t *testing.T) {
	n := 4
	circ, err := Section64Circuit(n)
	if err != nil {
		t.Fatal(err)
	}
	if circ.RandBitCount() != 1 {
		t.Fatalf("RandBitCount = %d", circ.RandBitCount())
	}
	rng := rand.New(rand.NewSource(7))
	zeros, ones := 0, 0
	for i := 0; i < 100; i++ {
		outs, err := circ.Eval(make([][]field.Element, n), rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs[1:] {
			if o != outs[0] {
				t.Fatal("recommendations differ")
			}
		}
		if outs[0] == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatal("degenerate bit")
	}
}

func TestRelaxedDropStopBatchDeadlocks(t *testing.T) {
	// Lemma 6.10: a relaxed scheduler dropping the STOP batch (all of it)
	// deadlocks the run; wills then apply.
	g := game.Chicken()
	circ, err := SelectCircuit(2, game.ChickenCETable())
	if err != nil {
		t.Fatal(err)
	}
	sched := &async.DropScheduler{
		Base: &async.RoundRobinScheduler{},
		// Drop everything the mediator (PID 2) sends.
		ShouldDrop: func(m async.MsgMeta) bool { return m.From == 2 },
	}
	p, res, err := Run(Config{
		Game: g, Circuit: circ, Types: []game.Type{0, 0},
		Approach:  game.ApproachAH,
		Wills:     map[int]game.Action{0: 0, 1: 0},
		Scheduler: sched,
		Relaxed:   true,
		Seed:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	if p[0] != 0 || p[1] != 0 {
		t.Fatalf("wills should fire: %v", p)
	}
}

package core

import (
	"math"
	"runtime"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

// chickenParams builds Theorem 4.1 parameters for an n-player "wide
// Chicken": we use the 2-player Chicken for the mediator tests, but most
// cheap-talk tests use the Section 6.4 game which scales with n.
func sec64Params(t *testing.T, n, k, tf int, v Variant) Params {
	t.Helper()
	g, err := game.Section64Game(n, maxInt(k, 1))
	if err != nil {
		t.Fatal(err)
	}
	circ, err := mediator.Section64Circuit(n)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Game:    g,
		Circuit: circ,
		K:       k,
		T:       tf,
		Variant: v,
		Approach: func() game.Approach {
			return game.ApproachAH
		}(),
		Epsilon:  0.1,
		CoinSeed: 99,
	}
	if v == Punish44 || v == Punish45 {
		pun := make(game.Profile, n)
		for i := range pun {
			pun[i] = game.Bottom
		}
		p.Punishment = pun
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestValidateBounds(t *testing.T) {
	cases := []struct {
		v     Variant
		k, tf int
		minN  int
	}{
		{Exact41, 1, 0, 5},
		{Exact41, 0, 1, 5},
		{Epsilon42, 1, 0, 4},
		{Punish44, 1, 0, 4},
		{Punish45, 0, 1, 4},
		{Punish45, 1, 1, 6},
	}
	for _, c := range cases {
		if got := c.v.Bound(c.k, c.tf); got != c.minN {
			t.Errorf("%v Bound(%d,%d) = %d, want %d", c.v, c.k, c.tf, got, c.minN)
		}
		// At the bound: valid. One below: invalid.
		p := sec64Params(t, c.minN, c.k, c.tf, c.v)
		if err := p.Validate(); err != nil {
			t.Errorf("%v at n=%d should validate: %v", c.v, c.minN, err)
		}
		if c.minN-1 >= 4 { // Section64Game needs n > 3k with k >= 1
			pBad := sec64Params(t, c.minN-1, c.k, c.tf, c.v)
			if err := pBad.Validate(); err == nil {
				t.Errorf("%v at n=%d should fail validation", c.v, c.minN-1)
			}
		}
	}
}

func TestValidateRequirements(t *testing.T) {
	p := sec64Params(t, 5, 1, 0, Punish44)
	p.Punishment = nil
	if err := p.Validate(); err == nil {
		t.Error("Punish44 without punishment should fail")
	}
	p = sec64Params(t, 5, 1, 0, Punish44)
	p.Approach = game.ApproachDefaultMove
	if err := p.Validate(); err == nil {
		t.Error("Punish44 with default-move approach should fail")
	}
	p = sec64Params(t, 7, 1, 0, Epsilon42)
	p.Epsilon = 0
	if err := p.Validate(); err == nil {
		t.Error("Epsilon42 with epsilon=0 should fail")
	}
	p = sec64Params(t, 7, 0, 0, Exact41)
	if err := p.Validate(); err == nil {
		t.Error("k+t=0 should fail")
	}
}

// runHonest plays the compiled cheap talk with all-honest players and
// returns the profile.
func runHonest(t *testing.T, p Params, seed int64, sched async.Scheduler) game.Profile {
	t.Helper()
	types := make([]game.Type, p.Game.N)
	prof, res, err := Run(RunConfig{Params: p, Types: types, Seed: seed, Scheduler: sched, MaxSteps: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("honest run deadlocked")
	}
	return prof
}

func TestTheorem41HonestRun(t *testing.T) {
	// n=5, k=1, t=0: n > 4k+4t. The talk must implement the b-lottery:
	// everyone plays the same bit.
	p := sec64Params(t, 5, 1, 0, Exact41)
	seen := map[game.Action]int{}
	for seed := int64(0); seed < 6; seed++ {
		prof := runHonest(t, p, seed, nil)
		first := prof[0]
		if first != 0 && first != 1 {
			t.Fatalf("seed %d: action %v", seed, first)
		}
		for _, a := range prof {
			if a != first {
				t.Fatalf("seed %d: profile %v not unanimous", seed, prof)
			}
		}
		seen[first]++
	}
	if len(seen) < 2 {
		t.Logf("bit never varied over 6 seeds: %v (possible, unlikely)", seen)
	}
}

func TestTheorem42HonestRun(t *testing.T) {
	// n=4, k=1, t=0: 3k+3t < n <= 4k+4t — epsilon regime.
	p := sec64Params(t, 4, 1, 0, Epsilon42)
	for seed := int64(0); seed < 4; seed++ {
		prof := runHonest(t, p, seed, nil)
		first := prof[0]
		if first != 0 && first != 1 {
			t.Fatalf("seed %d: action %v", seed, first)
		}
		for _, a := range prof {
			if a != first {
				t.Fatalf("seed %d: profile %v not unanimous", seed, prof)
			}
		}
	}
}

func TestTheorem44HonestRun(t *testing.T) {
	// n=4, k=1, t=0: n > 3k+4t; faults budget 0, degree 1.
	p := sec64Params(t, 4, 1, 0, Punish44)
	for seed := int64(0); seed < 4; seed++ {
		prof := runHonest(t, p, seed, nil)
		for _, a := range prof {
			if a != prof[0] {
				t.Fatalf("seed %d: %v", seed, prof)
			}
		}
	}
}

func TestTheorem45HonestRun(t *testing.T) {
	// n=4, k=1, t=0 leaves slack; also try the tight n=2k+3t+1 = 5 with
	// k=1, t=1.
	p := sec64Params(t, 4, 1, 0, Punish45)
	for seed := int64(0); seed < 3; seed++ {
		prof := runHonest(t, p, seed, nil)
		for _, a := range prof {
			if a != prof[0] {
				t.Fatalf("seed %d: %v", seed, prof)
			}
		}
	}
}

func TestTheorem45TightBound(t *testing.T) {
	// n=6, k=0... use k=1,t=1: bound 2+3+1=6.
	p := sec64Params(t, 6, 1, 1, Punish45)
	prof := runHonest(t, p, 3, nil)
	for _, a := range prof {
		if a != prof[0] {
			t.Fatalf("profile %v", prof)
		}
	}
}

func TestRandomSchedulesStillUnanimous(t *testing.T) {
	p := sec64Params(t, 5, 1, 0, Exact41)
	for seed := int64(10); seed < 14; seed++ {
		prof := runHonest(t, p, seed, async.NewRandomScheduler(seed))
		for _, a := range prof {
			if a != prof[0] {
				t.Fatalf("seed %d: %v", seed, prof)
			}
		}
	}
}

func TestImplementationDistanceChicken(t *testing.T) {
	// Compare outcome distributions: cheap talk vs mediator game, for the
	// Section 6.4 lottery at n=5 (both should be ~uniform on all-0/all-1).
	p := sec64Params(t, 5, 1, 0, Exact41)
	ct := game.NewOutcome()
	md := game.NewOutcome()
	trials := 40
	types := make([]game.Type, 5)
	for seed := int64(0); seed < int64(trials); seed++ {
		prof, _, err := Run(RunConfig{Params: p, Types: types, Seed: seed, MaxSteps: 20_000_000})
		if err != nil {
			t.Fatal(err)
		}
		ct.Add(prof)
		mprof, _, err := MediatorReference(p, types, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		md.Add(mprof)
	}
	d := game.Dist(ct, md)
	// Monte-Carlo slack: with 40 trials per side, allow generous margin,
	// but the supports must coincide (both only all-0 and all-1).
	if d > 0.5 {
		t.Fatalf("implementation distance %v too large\nct: %v\nmd: %v", d, ct, md)
	}
	for _, prof := range ct.Support() {
		for _, a := range prof {
			if a != prof[0] {
				t.Fatalf("cheap talk produced non-unanimous %v", prof)
			}
		}
	}
}

func TestBayesianTypesFlowThrough(t *testing.T) {
	// Consensus game: the talk must output the majority of the true types.
	n := 4
	g := game.ConsensusGame(n)
	circ, err := mediator.MajorityCircuit(n)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Game: g, Circuit: circ, K: 1, T: 0,
		Variant: Epsilon42, Approach: game.ApproachAH,
		Epsilon: 0.1, CoinSeed: 7,
	}
	types := []game.Type{1, 1, 1, 0}
	prof, res, err := Run(RunConfig{Params: p, Types: types, Seed: 5, MaxSteps: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	for i, a := range prof {
		if a != 1 {
			t.Fatalf("player %d decided %v, want majority 1 (%v)", i, a, prof)
		}
	}
	u := g.Utility(types, prof)
	if u[0] != 2 {
		t.Fatalf("utility %v", u)
	}
}

func TestRunValidation(t *testing.T) {
	p := sec64Params(t, 5, 1, 0, Exact41)
	if _, _, err := Run(RunConfig{Params: p, Types: []game.Type{0}}); err == nil {
		t.Error("type length mismatch should fail")
	}
	bad := p
	bad.K = 2 // 5 <= 4*2
	if _, _, err := Run(RunConfig{Params: bad, Types: make([]game.Type, 5)}); err == nil {
		t.Error("bound violation should fail")
	}
}

func TestVariantString(t *testing.T) {
	if Exact41.String() != "Theorem4.1" || Punish45.String() != "Theorem4.5" {
		t.Error("variant strings")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should still print")
	}
}

// TestPlayAllocationBudget guards what one play allocates: the n=8, k=1,
// t=1 Theorem 4.4 play (the benchmark's lib-n8 shape) under the random
// scheduler, seed 1. Per-message costs dominate the count, so a handler
// path that starts allocating per message, per recipient or per callback
// again shows here (per-message costs put it near 30k, per-sender maps
// in BA and AVSS near 11.2k, an envelope boxed per send near 9.3k, one
// AVSS dealing per dealt value near 7.0k; a play makes ~4.0k). The bytes
// budget guards the runtime storage a warm play reuses: a play that
// regrows its pending index and allocates new random streams for its
// parties allocates ~590 KB, one that reuses them ~305 KB.
func TestPlayAllocationBudget(t *testing.T) {
	checkPlayAllocs(t, 8, 1, 1, Punish44, func() async.Scheduler { return async.NewRandomScheduler(1) }, 5_500, 360<<10)
}

// TestSmallPlayAllocationBudget is TestPlayAllocationBudget for the n=5,
// k=0, t=1 Theorem 4.1 play under the round-robin scheduler (the shape of
// the benchmark's sim-n5 and cluster-n5 plays): ~1.3k allocations, ~2.0k
// with one AVSS dealing per dealt value, ~2.5k with an envelope boxed per
// send; ~112 KB when the runtime's storage is reused, ~205 KB when it is
// not.
func TestSmallPlayAllocationBudget(t *testing.T) {
	checkPlayAllocs(t, 5, 0, 1, Exact41, func() async.Scheduler { return &async.RoundRobinScheduler{} }, 1_900, 135<<10)
}

// checkPlayAllocs fails when one warm seed-1 play of the given shape
// allocates more than budget times or more than byteBudget bytes
// (runtime.MemStats.TotalAlloc; the least of five plays, after earlier
// plays have filled the runtime's pools, so a collection that empties a
// pool between two plays does not count). A -race build checks only the
// count.
func checkPlayAllocs(t *testing.T, n, k, tf int, v Variant, sched func() async.Scheduler, budget, byteBudget float64) {
	t.Helper()
	p, err := Section64Params(n, k, tf, v)
	if err != nil {
		t.Fatal(err)
	}
	types := make([]game.Type, n)
	play := func() {
		cfg := RunConfig{Params: p, Types: types, Seed: 1, Scheduler: sched()}
		if _, _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, play)
	bytes := math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		play()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	if allocs > budget {
		t.Fatalf("a play allocates %.0f times, budget %.0f", allocs, budget)
	}
	if bytes > byteBudget && !raceEnabled {
		t.Fatalf("a play allocates %.0f KB, budget %.0f KB", bytes/1024, byteBudget/1024)
	}
	t.Logf("%.0f allocations, %.1f KB per play", allocs, bytes/1024)
}

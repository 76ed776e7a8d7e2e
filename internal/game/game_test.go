package game

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProfileKeyClone(t *testing.T) {
	p := Profile{1, 2, NoMove}
	if p.Key() != "1,2,-1" {
		t.Errorf("Key = %q", p.Key())
	}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Error("Clone aliases")
	}
}

func TestValidate(t *testing.T) {
	g := Chicken()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Game{N: 2, NumActions: []int{2}, NumTypes: []int{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch should fail")
	}
	bad2 := *Chicken()
	bad2.Dist = []TypeProfile{{Prob: 0.5, Types: []Type{0, 0}}}
	if err := bad2.Validate(); err == nil {
		t.Error("distribution not summing to 1 should fail")
	}
}

func TestSampleTypesMatchesDist(t *testing.T) {
	g := MatchingGame()
	rng := rand.New(rand.NewSource(1))
	counts := map[[2]Type]int{}
	trials := 8000
	for i := 0; i < trials; i++ {
		tp := g.SampleTypes(rng)
		counts[[2]Type{tp[0], tp[1]}]++
	}
	for _, c := range counts {
		frac := float64(c) / float64(trials)
		if math.Abs(frac-0.25) > 0.03 {
			t.Fatalf("type profile frequency %v, want ~0.25", frac)
		}
	}
}

func TestSampleTypesEmptyDist(t *testing.T) {
	g := Chicken()
	rng := rand.New(rand.NewSource(2))
	tp := g.SampleTypes(rng)
	if len(tp) != 2 || tp[0] != 0 || tp[1] != 0 {
		t.Fatalf("empty dist should sample zeros, got %v", tp)
	}
}

func TestActionFieldRoundTrip(t *testing.T) {
	g := Chicken()
	f := func(a uint8) bool {
		act := Action(a % 2)
		return g.ActionFromField(0, ActionToField(act)) == act
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Out of range decodes to NoMove.
	if g.ActionFromField(0, 99) != NoMove {
		t.Error("out-of-range should be NoMove")
	}
}

func TestOutcomeDistribution(t *testing.T) {
	o := NewOutcome()
	o.Add(Profile{0, 0})
	o.Add(Profile{0, 0})
	o.Add(Profile{1, 1})
	if got := o.Prob(Profile{0, 0}); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Prob = %v", got)
	}
	if got := o.Prob(Profile{9, 9}); got != 0 {
		t.Errorf("unknown profile Prob = %v", got)
	}
	if len(o.Support()) != 2 {
		t.Errorf("support size %d", len(o.Support()))
	}
}

func TestDistProperties(t *testing.T) {
	a, b := NewOutcome(), NewOutcome()
	a.Add(Profile{0, 0})
	b.Add(Profile{1, 1})
	if d := Dist(a, b); math.Abs(d-2) > 1e-12 {
		t.Errorf("disjoint distributions should have distance 2, got %v", d)
	}
	if d := Dist(a, a); d != 0 {
		t.Errorf("self distance %v", d)
	}
	// Symmetry.
	if Dist(a, b) != Dist(b, a) {
		t.Error("Dist not symmetric")
	}
	// Mixed case.
	c := NewOutcome()
	c.Add(Profile{0, 0})
	c.Add(Profile{1, 1})
	if d := Dist(a, c); math.Abs(d-1) > 1e-12 {
		t.Errorf("expected 1, got %v", d)
	}
}

func TestExpectedUtilityChicken(t *testing.T) {
	g := Chicken()
	o := NewOutcome()
	// The correlated equilibrium: 1/4 (D,S), 1/4 (S,D), 1/2 (S,S).
	o.AddWeighted(Profile{0, 1}, 1)
	o.AddWeighted(Profile{1, 0}, 1)
	o.AddWeighted(Profile{1, 1}, 2)
	u := g.ExpectedUtility([]Type{0, 0}, o)
	if math.Abs(u[0]-5.25) > 1e-9 || math.Abs(u[1]-5.25) > 1e-9 {
		t.Fatalf("CE value = %v, want 5.25 each", u)
	}
}

func TestSection64Game(t *testing.T) {
	n, k := 4, 1
	g, err := Section64Game(n, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	types := make([]Type, n)
	cases := []struct {
		p    Profile
		want float64
	}{
		{Profile{1, 1, 1, 1}, 2},
		{Profile{0, 0, 0, 0}, 1},
		{Profile{Bottom, Bottom, 0, 0}, 1.1}, // k+1 = 2 bots
		{Profile{Bottom, 0, 0, 0}, 1},        // 1 bot, rest 0
		{Profile{Bottom, 1, 1, 1}, 2},        // 1 bot, rest 1
		{Profile{0, 1, 1, 1}, 0},             // mixed
		{Profile{Bottom, Bottom, Bottom, Bottom}, 1.1},
	}
	for _, c := range cases {
		u := g.Utility(types, c.p)
		for i := range u {
			if math.Abs(u[i]-c.want) > 1e-12 {
				t.Fatalf("profile %v: u=%v, want %v", c.p, u, c.want)
			}
		}
	}
	// Mediator equilibrium value: (1+2)/2 = 1.5; punishment value 1.1 < 1.5.
	o := NewOutcome()
	o.Add(Profile{0, 0, 0, 0})
	o.Add(Profile{1, 1, 1, 1})
	u := g.ExpectedUtility(types, o)
	if math.Abs(u[0]-1.5) > 1e-12 {
		t.Fatalf("equilibrium value %v, want 1.5", u[0])
	}
	if _, err := Section64Game(3, 1); err == nil {
		t.Error("n <= 3k must fail")
	}
}

func TestConsensusGame(t *testing.T) {
	g := ConsensusGame(3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	types := []Type{1, 1, 0}
	u := g.Utility(types, Profile{1, 1, 1}) // majority is 1
	if u[0] != 2 {
		t.Fatalf("agreeing on majority should pay 2, got %v", u[0])
	}
	u = g.Utility(types, Profile{0, 0, 0})
	if u[0] != 1 {
		t.Fatalf("agreeing off-majority should pay 1, got %v", u[0])
	}
	u = g.Utility(types, Profile{1, 0, 1})
	if u[0] != 0 {
		t.Fatalf("disagreement should pay 0, got %v", u[0])
	}
	u = g.Utility(types, Profile{1, 1, NoMove})
	if u[0] != 0 {
		t.Fatalf("no-show should pay 0, got %v", u[0])
	}
}

func TestMatchingGame(t *testing.T) {
	g := MatchingGame()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	u := g.Utility([]Type{0, 1}, Profile{0, 0})
	if u[0] != 2 {
		t.Fatalf("meeting at preferred venue pays 2, got %v", u)
	}
	u = g.Utility([]Type{1, 1}, Profile{0, 0})
	if u[0] != 1 {
		t.Fatalf("meeting at unpreferred venue pays 1, got %v", u)
	}
	u = g.Utility([]Type{0, 0}, Profile{0, 1})
	if u[0] != 0 {
		t.Fatalf("missing pays 0, got %v", u)
	}
}

func TestOutcomeString(t *testing.T) {
	o := NewOutcome()
	o.Add(Profile{1, 0})
	if s := o.String(); s != "(1,0):1.0000" {
		t.Errorf("String = %q", s)
	}
}

package main

import (
	"fmt"
	"math/rand"

	"asyncmediator/api"
	"asyncmediator/internal/circuit"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

// playInput is everything one play receives from the benchmark: the
// program sees only these generated values, never the workload seed.
type playInput struct {
	seed  int64 // Spec.Seed / RunConfig.Seed
	types []int // one type index per player
}

// gameTypes is the type profile as the library takes it.
func (in playInput) gameTypes() []game.Type {
	types := make([]game.Type, len(in.types))
	for p, t := range in.types {
		types[p] = game.Type(t)
	}
	return types
}

// splitmix64 is the SplitMix64 output function: a bijection on uint64
// whose outputs for consecutive inputs are statistically independent, so
// play i of workload seed s gets a seed unrelated to play i+1's.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// warmBase offsets warm-up play indices so warm-up and measured plays
// never share an input.
const warmBase = 1 << 40

// inputFor derives play i's inputs from the workload seed. Section 6.4
// has one type per player, so its profile is all zero; the consensus game
// draws one seeded bit per player.
func inputFor(seed int64, i int, n int, binaryTypes bool) playInput {
	h := splitmix64(uint64(seed)<<20 ^ uint64(i))
	in := playInput{seed: int64(h >> 1), types: make([]int, n)}
	if binaryTypes {
		bits := splitmix64(h)
		for p := range in.types {
			in.types[p] = int(bits>>uint(p)) & 1
		}
	}
	return in
}

// pickRNG is the per-iteration generator durable-mix draws its read
// targets from.
func pickRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed)<<21^uint64(i)) >> 1)))
}

// checker verifies one play's output against the game it played.
type checker struct {
	n        int
	majority *circuit.Circuit // nil: section64 (all-equal in {0,1})
}

func newChecker(gameName string, n int) (*checker, error) {
	c := &checker{n: n}
	if gameName == "consensus" {
		circ, err := mediator.MajorityCircuit(n)
		if err != nil {
			return nil, err
		}
		c.majority = circ
	}
	return c, nil
}

// profile checks a resolved action profile: length n, all players on the
// same action in {0,1}, and for the consensus game that action equal to
// the majority circuit evaluated in the clear on the generated types.
func (c *checker) profile(prof []int, types []int) error {
	if len(prof) != c.n {
		return fmt.Errorf("profile has %d actions, want %d", len(prof), c.n)
	}
	for _, a := range prof {
		if a != prof[0] || (a != 0 && a != 1) {
			return fmt.Errorf("profile %v is not unanimous in {0,1}", prof)
		}
	}
	if c.majority == nil {
		return nil
	}
	inputs := make([][]field.Element, c.n)
	for p, t := range types {
		inputs[p] = []field.Element{game.TypeToField(game.Type(t))}
	}
	out, err := c.majority.Eval(inputs, nil)
	if err != nil {
		return fmt.Errorf("majority circuit: %w", err)
	}
	for p, v := range out {
		if field.Element(prof[p]) != v {
			return fmt.Errorf("profile %v on types %v: player %d should play %d", prof, types, p, v)
		}
	}
	return nil
}

// view checks a terminal session snapshot served by a farm.
func (c *checker) view(v api.SessionView, types []int) error {
	if v.State != api.StateDone {
		return fmt.Errorf("session %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if v.Deadlock {
		return fmt.Errorf("session %s deadlocked", v.ID)
	}
	if err := c.profile(v.Profile, types); err != nil {
		return fmt.Errorf("session %s: %w", v.ID, err)
	}
	return nil
}

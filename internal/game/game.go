// Package game models normal-form Bayesian games and the outcome-
// distribution machinery of the paper's Section 2: type profiles, action
// profiles, utilities, default moves, and the L1 distance between outcome
// distributions used to define (epsilon-)implementation.
package game

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"asyncmediator/internal/field"
)

// Type is a player's private type (its "input" in the paper's terminology).
type Type int

// Action is a move in the underlying game. NoMove marks a player that
// never moved (relevant only in intermediate bookkeeping; final profiles
// substitute wills or default moves).
type Action int

// NoMove is the sentinel for "player did not move".
const NoMove Action = -1

// Approach selects how moves are assigned to players that never move in
// the talk phase (Section 1): the Aumann-Hart approach executes the
// player's "will"; the default-move approach imposes the game's default
// function M_i.
type Approach int

// The two approaches studied by the paper.
const (
	ApproachAH Approach = iota + 1
	ApproachDefaultMove
)

func (a Approach) String() string {
	switch a {
	case ApproachAH:
		return "AH"
	case ApproachDefaultMove:
		return "default-move"
	default:
		return fmt.Sprintf("approach(%d)", int(a))
	}
}

// Profile is a joint action profile, one action per player.
type Profile []Action

// Clone returns an independent copy.
func (p Profile) Clone() Profile {
	out := make(Profile, len(p))
	copy(out, p)
	return out
}

// Key returns a canonical string key for use in distribution maps.
func (p Profile) Key() string {
	var sb strings.Builder
	for i, a := range p {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", a)
	}
	return sb.String()
}

// TypeProfile is one entry of a joint type distribution.
type TypeProfile struct {
	Prob  float64
	Types []Type
}

// Game is a normal-form Bayesian game.
type Game struct {
	// N is the number of players.
	N int
	// NumActions[i] is the size of player i's action set; actions are
	// 0..NumActions[i]-1.
	NumActions []int
	// NumTypes[i] is the size of player i's type space; types are
	// 0..NumTypes[i]-1.
	NumTypes []int
	// Dist is the commonly known joint type distribution. Empty means the
	// single all-zero type profile.
	Dist []TypeProfile
	// Utility maps a type profile and action profile to per-player
	// payoffs. Implementations must tolerate NoMove entries (e.g. treat
	// them as a worst case or as a designated "no-show" outcome).
	Utility func(types []Type, actions Profile) []float64
	// Default is the default-move function M_i of the default-move
	// approach: the move imposed on player i with type t if it never moves.
	// Nil means NoMove is carried through to Utility.
	Default func(i int, t Type) Action
}

// Validate checks structural consistency.
func (g *Game) Validate() error {
	if g.N <= 0 {
		return fmt.Errorf("game: N=%d", g.N)
	}
	if len(g.NumActions) != g.N || len(g.NumTypes) != g.N {
		return fmt.Errorf("game: NumActions/NumTypes length mismatch with N=%d", g.N)
	}
	for i := 0; i < g.N; i++ {
		if g.NumActions[i] <= 0 {
			return fmt.Errorf("game: player %d has no actions", i)
		}
		if g.NumTypes[i] <= 0 {
			return fmt.Errorf("game: player %d has no types", i)
		}
	}
	if g.Utility == nil {
		return fmt.Errorf("game: nil Utility")
	}
	if len(g.Dist) > 0 {
		sum := 0.0
		for _, tp := range g.Dist {
			if len(tp.Types) != g.N {
				return fmt.Errorf("game: type profile length %d != N", len(tp.Types))
			}
			for i, t := range tp.Types {
				if int(t) < 0 || int(t) >= g.NumTypes[i] {
					return fmt.Errorf("game: type %d out of range for player %d", t, i)
				}
			}
			if tp.Prob < 0 {
				return fmt.Errorf("game: negative probability")
			}
			sum += tp.Prob
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("game: type distribution sums to %v", sum)
		}
	}
	return nil
}

// SampleTypes draws a type profile from Dist (all-zeros if Dist is empty).
func (g *Game) SampleTypes(rng *rand.Rand) []Type {
	if len(g.Dist) == 0 {
		return make([]Type, g.N)
	}
	x := rng.Float64()
	acc := 0.0
	for _, tp := range g.Dist {
		acc += tp.Prob
		if x < acc {
			out := make([]Type, g.N)
			copy(out, tp.Types)
			return out
		}
	}
	out := make([]Type, g.N)
	copy(out, g.Dist[len(g.Dist)-1].Types)
	return out
}

// ValidAction reports whether a is a legal action for player i.
func (g *Game) ValidAction(i int, a Action) bool {
	return a >= 0 && int(a) < g.NumActions[i]
}

// ActionToField encodes an action for circuit/MPC transport.
func ActionToField(a Action) field.Element { return field.FromInt64(int64(a)) }

// TypeToField encodes a type for circuit/MPC transport.
func TypeToField(t Type) field.Element { return field.FromInt64(int64(t)) }

// ActionFromField decodes a circuit output into an action for player i of
// game g; out-of-range values decode to NoMove (garbage from corrupted
// computations is treated as "no move made").
func (g *Game) ActionFromField(i int, v field.Element) Action {
	a := Action(v.Int64())
	if !g.ValidAction(i, a) {
		return NoMove
	}
	return a
}

// Outcome is an empirical (or exact) distribution over action profiles.
type Outcome struct {
	counts map[string]float64
	sample map[string]Profile
	total  float64
}

// NewOutcome returns an empty distribution.
func NewOutcome() *Outcome {
	return &Outcome{counts: make(map[string]float64), sample: make(map[string]Profile)}
}

// Add records one observed profile with weight 1.
func (o *Outcome) Add(p Profile) { o.AddWeighted(p, 1) }

// AddWeighted records a profile with an arbitrary positive weight (used
// when enumerating exact distributions).
func (o *Outcome) AddWeighted(p Profile, w float64) {
	k := p.Key()
	o.counts[k] += w
	if _, ok := o.sample[k]; !ok {
		o.sample[k] = p.Clone()
	}
	o.total += w
}

// Merge folds another outcome into o. Trial counts are whole numbers, so
// float64 accumulation is exact and the merged distribution is identical
// no matter how the trials were partitioned — the property the sharded
// experiment engine (internal/sim) relies on for bit-identical serial vs
// parallel tables.
func (o *Outcome) Merge(other *Outcome) {
	if other == nil {
		return
	}
	for k, w := range other.counts {
		o.counts[k] += w
		if _, ok := o.sample[k]; !ok {
			o.sample[k] = other.sample[k].Clone()
		}
		o.total += w
	}
}

// Prob returns the empirical probability of profile p.
func (o *Outcome) Prob(p Profile) float64 {
	if o.total == 0 {
		return 0
	}
	return o.counts[p.Key()] / o.total
}

// Support returns the profiles with positive probability, sorted by key.
func (o *Outcome) Support() []Profile {
	keys := make([]string, 0, len(o.sample))
	for k := range o.sample {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Profile, len(keys))
	for i, k := range keys {
		out[i] = o.sample[k]
	}
	return out
}

// String renders the distribution compactly, for reports.
func (o *Outcome) String() string {
	var sb strings.Builder
	for _, p := range o.Support() {
		fmt.Fprintf(&sb, "(%s):%.4f ", p.Key(), o.Prob(p))
	}
	return strings.TrimSpace(sb.String())
}

// Dist is the paper's distance between distributions:
// sum_s |pi(s) - pi'(s)| (Section 2). Implementation corresponds to
// distance 0; epsilon-implementation bounds it by epsilon.
func Dist(a, b *Outcome) float64 {
	// Summation runs in sorted-key order: float addition is not
	// associative, so a map-order fold would make the low bits of the
	// distance vary run to run.
	seen := make(map[string]bool, len(a.counts)+len(b.counts))
	keys := make([]string, 0, len(a.counts)+len(b.counts))
	for k := range a.counts {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range b.counts {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	d := 0.0
	for _, k := range keys {
		pa, pb := 0.0, 0.0
		if a.total > 0 {
			pa = a.counts[k] / a.total
		}
		if b.total > 0 {
			pb = b.counts[k] / b.total
		}
		if pa > pb {
			d += pa - pb
		} else {
			d += pb - pa
		}
	}
	return d
}

// ExpectedUtility computes the mean per-player utility of an outcome
// distribution at a fixed type profile.
func (g *Game) ExpectedUtility(types []Type, o *Outcome) []float64 {
	out := make([]float64, g.N)
	if o.total == 0 {
		return out
	}
	// Deterministic fold: sorted-key order, for the same reason as Dist.
	keys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := o.sample[k]
		u := g.Utility(types, p)
		for i := range out {
			out[i] += u[i] * o.counts[k] / o.total
		}
	}
	return out
}

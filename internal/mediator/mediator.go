// Package mediator implements the paper's mediator games: an extension of
// an underlying Bayesian game with a trusted third party that players can
// talk to over asynchronous channels (Section 2).
//
// The mediator runs a strategy in *canonical form*: players send their
// type; the mediator answers each message with the next round number; after
// a bounded number of rounds, and once enough players have supplied valid
// and complete input sets, the mediator evaluates its decision function (an
// arithmetic circuit, package circuit) and sends every player "STOP +
// action" — all STOPs in one activation, hence one batch, which is exactly
// the granularity at which the paper's relaxed schedulers may drop them
// (Lemma 6.10).
//
// CircuitMediator with Rounds=1 is the weak-implementation construction of
// Lemma 6.8 (O(n) messages); larger Rounds reproduces the minimally
// informative transform f(sigma_d), whose full version uses an
// astronomically large round count to sweep all scheduler equivalence
// classes — here Rounds is a parameter and the message-count scaling
// 2*R*n is what experiment E3 measures.
//
// LeakyMediator reproduces the Section 6.4 counterexample mediator, which
// sends each player the extra hint a + b*i (mod 2) that a rational
// coalition can pool to learn the lottery outcome b early.
package mediator

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"asyncmediator/internal/async"
	"asyncmediator/internal/circuit"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
)

// Message kinds of the canonical mediator protocol.
type (
	// MsgInput is a player's (round, type) report to the mediator.
	MsgInput struct {
		Round int
		X     field.Element
	}
	// MsgRound asks the player to confirm its input for round R.
	MsgRound struct{ R int }
	// MsgStop carries the player's recommended action and ends the
	// conversation (canonical form's "STOP").
	MsgStop struct{ Action field.Element }
	// MsgHint is the Section 6.4 mediator's leaky extra message.
	MsgHint struct{ V field.Element }
)

// CircuitMediator is the trusted mediator process. It occupies PID n (the
// first auxiliary slot) in an n-player run.
type CircuitMediator struct {
	// N is the number of players.
	N int
	// Circ is the mediator's decision function; input slot 0 of player p
	// is p's reported type.
	Circ *circuit.Circuit
	// WaitFor is how many valid and complete input sets the mediator
	// needs before deciding (the paper uses n-k-t).
	WaitFor int
	// Rounds is the canonical-form round count r; each player exchanges
	// Rounds messages with the mediator before STOP.
	Rounds int
	// NumTypes[i] bounds player i's valid type values (validity check).
	NumTypes []int
	// DefaultInput substitutes inputs of players missing from the decided
	// set.
	DefaultInput field.Element
	// PatternSeed, when true, mixes the arrival order of messages into the
	// evaluation randomness — the minimally informative construction's
	// scheduler-equivalence simulation (outcome-neutral for canonical
	// circuit mediators, measured for fidelity).
	PatternSeed bool

	inputs   map[async.PID]field.Element
	rounds   map[async.PID]int
	invalid  map[async.PID]bool
	arrival  []async.PID
	computed bool
}

var _ async.Process = (*CircuitMediator)(nil)

// Start implements async.Process.
func (m *CircuitMediator) Start(env *async.Env) {
	m.inputs = make(map[async.PID]field.Element)
	m.rounds = make(map[async.PID]int)
	m.invalid = make(map[async.PID]bool)
}

// Deliver implements async.Process.
func (m *CircuitMediator) Deliver(env *async.Env, msg async.Message) {
	if m.computed {
		return
	}
	in, ok := msg.Payload.(MsgInput)
	if !ok {
		return // garbage from a deviating player
	}
	p := msg.From
	if int(p) < 0 || int(p) >= m.N || m.invalid[p] {
		return
	}
	// Validity: the reported type must be a value the player could have,
	// and must stay consistent across rounds.
	if len(m.NumTypes) == m.N {
		if in.X.Uint64() >= uint64(m.NumTypes[p]) {
			m.invalid[p] = true
			delete(m.inputs, p)
			return
		}
	}
	if prev, seen := m.inputs[p]; seen {
		if prev != in.X || in.Round != m.rounds[p]+1 {
			m.invalid[p] = true
			delete(m.inputs, p)
			return
		}
		m.rounds[p] = in.Round
	} else {
		if in.Round != 0 {
			m.invalid[p] = true
			return
		}
		m.inputs[p] = in.X
		m.rounds[p] = 0
		m.arrival = append(m.arrival, p)
	}
	// Ask for the next round, or count the set complete.
	if m.rounds[p] < m.Rounds-1 {
		env.Send(p, MsgRound{R: m.rounds[p] + 1})
		return
	}
	if m.countComplete() >= m.WaitFor {
		m.compute(env)
	}
}

func (m *CircuitMediator) countComplete() int {
	c := 0
	for p, r := range m.rounds {
		if !m.invalid[p] && r >= m.Rounds-1 {
			c++
		}
	}
	return c
}

// patternLabel keys the stream a PatternSeed mediator evaluates with: the
// arrival pattern's hash mixed with a draw from its own stream.
const patternLabel = "mediator/pattern"

// compute evaluates the circuit and sends all STOPs in one activation
// (one batch): a relaxed scheduler must drop all of them or none.
func (m *CircuitMediator) compute(env *async.Env) {
	m.computed = true
	inputs := make([][]field.Element, m.N)
	for p := 0; p < m.N; p++ {
		v := m.DefaultInput
		if x, ok := m.inputs[async.PID(p)]; ok && !m.invalid[async.PID(p)] && m.rounds[async.PID(p)] >= m.Rounds-1 {
			v = x
		}
		slots := m.Circ.InputSlots(p)
		vec := make([]field.Element, slots)
		for s := range vec {
			vec[s] = v
		}
		inputs[p] = vec
	}
	var rng field.Source = env.Rand()
	if m.PatternSeed {
		// Fold the arrival pattern into the randomness, modelling the
		// scheduler-equivalence-class selection of Lemma 6.8.
		h := fnv.New64a()
		for _, p := range m.arrival {
			_, _ = h.Write([]byte{byte(p)})
		}
		rng = rand.NewChaCha8(async.StreamKey(patternLabel, int64(h.Sum64()^rng.Uint64()), 0))
	}
	outs, err := m.Circ.Eval(inputs, rng)
	if err != nil {
		// A mediator with a malformed circuit halts silently; players
		// deadlock and the game layer applies wills/defaults.
		env.Halt()
		return
	}
	for oi, out := range m.Circ.Outputs() {
		m.sendDecision(env, async.PID(out.Player), outs[oi])
	}
	env.Halt()
}

// sendDecision lets subtypes override the final message (LeakyMediator
// adds hints). The default sends MsgStop.
func (m *CircuitMediator) sendDecision(env *async.Env, p async.PID, a field.Element) {
	env.Send(p, MsgStop{Action: a})
}

// HonestPlayer is the canonical-form honest player strategy sigma_i: send
// the type, re-confirm it each round, play the recommended action on STOP.
type HonestPlayer struct {
	// Mediator is the mediator's PID (normally n).
	Mediator async.PID
	// Type is this player's private type.
	Type game.Type
	// G decodes recommended actions.
	G *game.Game
	// Will, if non-nil, is registered at start (AH approach): the move the
	// player wants made if the talk deadlocks before STOP.
	Will *game.Action
}

var _ async.Process = (*HonestPlayer)(nil)

// Start implements async.Process.
func (h *HonestPlayer) Start(env *async.Env) {
	if h.Will != nil {
		env.SetWill(*h.Will)
	}
	env.Send(h.Mediator, MsgInput{Round: 0, X: game.TypeToField(h.Type)})
}

// Deliver implements async.Process.
func (h *HonestPlayer) Deliver(env *async.Env, msg async.Message) {
	if msg.From != h.Mediator {
		return // honest players ignore non-mediator chatter
	}
	switch m := msg.Payload.(type) {
	case MsgRound:
		env.Send(h.Mediator, MsgInput{Round: m.R, X: game.TypeToField(h.Type)})
	case MsgStop:
		a := h.G.ActionFromField(int(env.Self()), m.Action)
		env.Decide(a)
		env.Halt()
	case MsgHint:
		// Honest players ignore hints (sigma ignores the message a+b*i).
	}
}

// Leaky is the Section 6.4 mediator: it draws a, b in {0,1} uniformly,
// sends every player i the hint a + b*i (mod 2), then — in a separate
// batch, which is what a colluding relaxed scheduler can drop — "output b;
// STOP". It takes no meaningful inputs: players have a single dummy type.
type Leaky struct {
	N       int
	started bool
}

var _ async.Process = (*Leaky)(nil)

// NewLeaky returns the Section 6.4 mediator for n players.
func NewLeaky(n int) *Leaky { return &Leaky{N: n} }

// msgSelfStop is the internal trigger for the STOP batch: sending it to
// self re-activates the mediator so the STOPs form their own batch.
type msgSelfStop struct{ b int64 }

// Start implements async.Process.
func (m *Leaky) Start(env *async.Env) {}

// Deliver implements async.Process.
func (m *Leaky) Deliver(env *async.Env, msg async.Message) {
	if s, ok := msg.Payload.(msgSelfStop); ok {
		for i := 0; i < m.N; i++ {
			env.Send(async.PID(i), MsgStop{Action: field.FromInt64(s.b)})
		}
		env.Halt()
		return
	}
	if m.started {
		return
	}
	if _, ok := msg.Payload.(MsgInput); !ok {
		return
	}
	m.started = true
	a := env.Rand().Int64N(2)
	b := env.Rand().Int64N(2)
	// Batch 1: the hints a + b*i (mod 2).
	for i := 0; i < m.N; i++ {
		hint := (a + b*int64(i)) % 2
		env.Send(async.PID(i), MsgHint{V: field.FromInt64(hint)})
	}
	env.Send(env.Self(), msgSelfStop{b: b})
}

// ResolveMoves converts a runtime result into a final action profile under
// the chosen approach: decided moves stand; otherwise the AH approach uses
// wills and the default-move approach uses the game's default function;
// remaining holes are game.NoMove.
func ResolveMoves(g *game.Game, types []game.Type, res *async.Result, approach game.Approach) game.Profile {
	out := make(game.Profile, g.N)
	for i := 0; i < g.N; i++ {
		out[i] = game.NoMove
		if mv, ok := res.Moves[async.PID(i)]; ok {
			if a, ok2 := mv.(game.Action); ok2 {
				out[i] = a
				continue
			}
		}
		switch approach {
		case game.ApproachAH:
			if w, ok := res.Wills[async.PID(i)]; ok {
				if a, ok2 := w.(game.Action); ok2 {
					out[i] = a
					continue
				}
			}
			// No will registered: fall back to the game default, if any.
			if g.Default != nil {
				out[i] = g.Default(i, types[i])
			}
		case game.ApproachDefaultMove:
			if g.Default != nil {
				out[i] = g.Default(i, types[i])
			}
		}
	}
	return out
}

// Config bundles a runnable mediator game.
type Config struct {
	Game     *game.Game
	Circuit  *circuit.Circuit
	Types    []game.Type
	WaitFor  int
	Rounds   int
	Approach game.Approach
	// Wills[i], if set, is player i's AH will.
	Wills map[int]game.Action
	// Scheduler defaults to round-robin; Relaxed permits drops.
	Scheduler async.Scheduler
	Relaxed   bool
	Seed      int64
	// Override lets tests replace individual player processes (deviators)
	// or the mediator process itself (PID n).
	Override map[int]async.Process
}

// Run plays one mediator game and returns the resolved profile and stats.
func Run(cfg Config) (game.Profile, *async.Result, error) {
	g := cfg.Game
	n := g.N
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.WaitFor <= 0 {
		cfg.WaitFor = n
	}
	procs := make([]async.Process, n+1)
	for i := 0; i < n; i++ {
		hp := &HonestPlayer{Mediator: async.PID(n), Type: cfg.Types[i], G: g}
		if w, ok := cfg.Wills[i]; ok {
			wc := w
			hp.Will = &wc
		}
		procs[i] = hp
	}
	procs[n] = &CircuitMediator{
		N:        n,
		Circ:     cfg.Circuit,
		WaitFor:  cfg.WaitFor,
		Rounds:   cfg.Rounds,
		NumTypes: g.NumTypes,
	}
	for pid, p := range cfg.Override {
		if pid < 0 || pid > n {
			return nil, nil, fmt.Errorf("mediator: override pid %d out of range", pid)
		}
		procs[pid] = p
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = &async.RoundRobinScheduler{}
	}
	rt, err := async.New(async.Config{
		Procs:     procs,
		Players:   n,
		Scheduler: sched,
		Seed:      cfg.Seed,
		Relaxed:   cfg.Relaxed,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := rt.Run()
	if err != nil {
		return nil, nil, err
	}
	return ResolveMoves(g, cfg.Types, res, cfg.Approach), res, nil
}

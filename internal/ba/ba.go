// Package ba implements asynchronous randomized binary Byzantine agreement
// for t < n/3, in the style of Mostefaoui-Moumen-Raynal (signature-free,
// binary-value broadcast + common coin), with a Bracha-style DONE gadget
// for termination.
//
// Properties (per instance):
//   - Validity: a decided value was proposed by some honest party.
//   - Agreement: no two honest parties decide differently.
//   - Termination: with a common coin, all honest parties decide in O(1)
//     expected rounds; with local coins termination still holds almost
//     surely but slower (an ablation measured in the benchmarks).
//
// The common coin is provided by an interface. SharedCoin derives the bit
// from a seed shared at setup — Rabin's predistributed-coin model. That is
// a substitution: every party, and the scheduler, can compute the coin of
// any round in advance, while the O(1)-round termination argument assumes
// the round-r coin stays unpredictable until some honest party reaches
// round r. No scheduler here reads the coin, so the expected round count
// is measured against oblivious schedules only. The game-theoretic layer
// above is agnostic to the coin's realization.
//
// Per-sender tallies are n-bit sets (proto.Senders), so a sender id
// outside 0..n-1 counts nowhere. Per-round state stays sparse and bounded
// by maxRounds: a round's state exists only once a message for it arrives
// or is sent, and messages for rounds outside 1..maxRounds are dropped, so
// a Byzantine estimate for a far round costs one round's state, not one
// per round below it.
package ba

import (
	"math/rand"

	"asyncmediator/internal/async"
	"asyncmediator/internal/proto"
)

// maxRounds bounds per-instance state so malicious parties cannot make an
// honest party allocate unboundedly. Exceeding it aborts progress for the
// instance (never observed under honest coins; local-coin runs at small n
// finish in a handful of rounds).
const maxRounds = 4096

// Coin supplies the round coins.
type Coin interface {
	// Bit returns the coin for the given instance and round, in {0, 1}.
	Bit(instance string, round int) int
}

// SharedCoin is a common coin derived from a shared seed: all parties
// constructed with the same seed see the same coin (the predistributed-
// coin model). The adversary in our experiments may also read it; the
// schedulers used are not coin-adaptive.
type SharedCoin struct{ Seed int64 }

var _ Coin = SharedCoin{}

// Bit implements Coin.
func (c SharedCoin) Bit(instance string, round int) int {
	return int(coinHash(c.Seed, instance, round) & 1)
}

// coinHash is FNV-1a 64 over the seed's 8 little-endian bytes, the
// round's 8 little-endian bytes and then the instance id: hash/fnv's
// result, computed without its allocations (the coin runs every round of
// every agreement).
func coinHash(seed int64, instance string, round int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*i)))) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(round>>(8*i)))) * prime
	}
	for i := 0; i < len(instance); i++ {
		h = (h ^ uint64(instance[i])) * prime
	}
	return h
}

// LocalCoin flips an independent per-party coin (Ben-Or style). Kept for
// the E8 ablation; expected round counts grow quickly with n.
type LocalCoin struct{ Rng *rand.Rand }

var _ Coin = (*LocalCoin)(nil)

// Bit implements Coin.
func (c *LocalCoin) Bit(string, int) int { return int(c.Rng.Int63() & 1) }

// Message kinds.
type (
	// MsgEst is a binary-value-broadcast estimate for a round.
	MsgEst struct {
		Round int
		V     int
	}
	// MsgAux reports a bin_values member for a round.
	MsgAux struct {
		Round int
		V     int
	}
	// MsgDone announces a decision (termination gadget).
	MsgDone struct{ V int }
)

type roundState struct {
	estRecv   [2]proto.Senders // who sent EST v
	estSent   [2]bool
	binValues [2]bool
	auxSent   bool
	auxRecv   proto.Senders // who sent an AUX (the first one counts)
	auxCount  [2]int        // how many of those AUXs carried v
}

// BA is one binary-agreement instance.
type BA struct {
	n, t int
	coin Coin

	round    int
	est      int
	proposed bool

	rounds map[int]*roundState

	decided  bool
	decision int
	doneSent bool
	doneRecv [2]proto.Senders
	halted   bool

	onDecide func(ctx *proto.Ctx, v int)
}

var _ proto.Module = (*BA)(nil)

// New creates a BA instance among n parties with fault bound t and the
// given coin. onDecide fires exactly once with the decision.
func New(n, t int, coin Coin, onDecide func(ctx *proto.Ctx, v int)) *BA {
	return &BA{
		n:        n,
		t:        t,
		coin:     coin,
		rounds:   make(map[int]*roundState),
		doneRecv: [2]proto.Senders{proto.NewSenders(n), proto.NewSenders(n)},
		onDecide: onDecide,
	}
}

// Start implements proto.Module. Input arrives via Propose.
func (b *BA) Start(ctx *proto.Ctx) {}

// Propose supplies this party's input. Calling more than once is a no-op.
func (b *BA) Propose(ctx *proto.Ctx, v int) {
	if b.proposed || b.halted || v < 0 || v > 1 {
		return
	}
	b.proposed = true
	b.est = v
	b.round = 1
	b.sendEst(ctx, 1, v)
	// Thresholds may already have been crossed by traffic that arrived
	// before we proposed (asynchrony!): re-evaluate aux and advancement.
	b.tryAdvance(ctx, 1)
}

func (b *BA) state(r int) *roundState {
	st, ok := b.rounds[r]
	if !ok {
		st = &roundState{
			estRecv: [2]proto.Senders{proto.NewSenders(b.n), proto.NewSenders(b.n)},
			auxRecv: proto.NewSenders(b.n),
		}
		b.rounds[r] = st
	}
	return st
}

func (b *BA) sendEst(ctx *proto.Ctx, r, v int) {
	st := b.state(r)
	if st.estSent[v] {
		return
	}
	st.estSent[v] = true
	ctx.Broadcast(MsgEst{Round: r, V: v})
}

// Handle implements proto.Module.
func (b *BA) Handle(ctx *proto.Ctx, from async.PID, body any) {
	if b.halted {
		return
	}
	switch m := body.(type) {
	case MsgEst:
		if m.V < 0 || m.V > 1 || m.Round < 1 || m.Round > maxRounds {
			return
		}
		st := b.state(m.Round)
		if !st.estRecv[m.V].Add(from) {
			return
		}
		n := st.estRecv[m.V].Len()
		// BV-broadcast: relay on t+1, accept into bin_values on 2t+1.
		if n >= b.t+1 {
			b.sendEst(ctx, m.Round, m.V)
		}
		if n >= 2*b.t+1 && !st.binValues[m.V] {
			st.binValues[m.V] = true
			b.tryAdvance(ctx, m.Round)
		}

	case MsgAux:
		if m.V < 0 || m.V > 1 || m.Round < 1 || m.Round > maxRounds {
			return
		}
		st := b.state(m.Round)
		if !st.auxRecv.Add(from) {
			return
		}
		st.auxCount[m.V]++
		b.tryAdvance(ctx, m.Round)

	case MsgDone:
		if m.V < 0 || m.V > 1 {
			return
		}
		if !b.doneRecv[m.V].Add(from) {
			return
		}
		cnt := b.doneRecv[m.V].Len()
		if cnt >= b.t+1 {
			// Adopt the decision and join the gadget.
			b.decide(ctx, m.V)
		}
		if cnt >= 2*b.t+1 && b.decided && b.decision == m.V {
			b.halted = true
		}
	}
}

func (b *BA) maybeSendAux(ctx *proto.Ctx, r int) {
	if r != b.round || !b.proposed {
		return
	}
	st := b.state(r)
	if st.auxSent {
		return
	}
	// Broadcast an aux value from bin_values; prefer our estimate.
	v := -1
	if st.binValues[b.est] {
		v = b.est
	} else if st.binValues[0] {
		v = 0
	} else if st.binValues[1] {
		v = 1
	}
	if v < 0 {
		return
	}
	st.auxSent = true
	ctx.Broadcast(MsgAux{Round: r, V: v})
}

// tryAdvance sends this round's AUX once bin_values is non-empty, and
// checks whether the current round can complete: n-t AUX messages whose
// values all lie in bin_values.
func (b *BA) tryAdvance(ctx *proto.Ctx, r int) {
	if !b.proposed || r != b.round || b.round > maxRounds {
		return
	}
	st := b.state(r)
	b.maybeSendAux(ctx, r)
	if !st.auxSent {
		return
	}
	var have [2]int
	for v, ok := range st.binValues {
		if ok {
			have[v] = st.auxCount[v]
		}
	}
	if have[0]+have[1] < b.n-b.t {
		return
	}
	c := b.coin.Bit(ctx.Instance(), r)
	var next int
	switch {
	case have[0] > 0 && have[1] > 0:
		next = c
	case have[1] > 0:
		next = 1
		if c == 1 {
			b.decide(ctx, 1)
		}
	default:
		next = 0
		if c == 0 {
			b.decide(ctx, 0)
		}
	}
	if b.halted {
		return
	}
	b.est = next
	b.round = r + 1
	b.sendEst(ctx, b.round, next)
	// Aux/advance may already be satisfiable from buffered traffic.
	b.tryAdvance(ctx, b.round)
}

func (b *BA) decide(ctx *proto.Ctx, v int) {
	if !b.decided {
		b.decided = true
		b.decision = v
		if b.onDecide != nil {
			b.onDecide(ctx, v)
		}
	}
	if !b.doneSent && b.decision == v {
		b.doneSent = true
		ctx.Broadcast(MsgDone{V: v})
	}
	if b.doneRecv[b.decision].Len() >= 2*b.t+1 {
		b.halted = true
	}
}

// Package adversary is the deviation library used by the robustness
// experiments: concrete strategies for rational coalitions K, malicious
// players T, and environments (schedulers) that collude with them, as the
// paper's Section 6.1 shows they may.
//
// The library covers the deviation classes the paper's analysis reasons
// about:
//
//   - crashing / going silent (Crash, MuteAfter)
//   - lying about one's type (honest protocol run with a fabricated type)
//   - corrupting shares sent during openings (CorruptOpens)
//   - pooling the coalition's observations through a shared Board
//   - deadlock baiting with a colluding relaxed scheduler (the Section 6.4
//     attack: HintPooler + BaitScheduler)
//
// Out of scope: wrong-value resharing inside multiplication. Package mpc
// does not verify reshared products (that needs the companion paper's
// verified-multiplication machinery, which the paper cites as [10]), so a
// strategy here would succeed rather than test a defence.
package adversary

import (
	"asyncmediator/internal/async"
	"asyncmediator/internal/avss"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/proto"
)

// Crash is a player that never sends anything (fail-stop at time zero).
type Crash struct{}

var _ async.Process = Crash{}

// Start implements async.Process.
func (Crash) Start(env *async.Env) {}

// Deliver implements async.Process.
func (Crash) Deliver(env *async.Env, m async.Message) {}

// Rewrite wraps an honest process but filters/rewrites every outgoing
// message through Hook. The inner process is unaware. A hook that
// rewrites a *proto.Envelope returns a copy: the envelope it is handed
// may be shared with other recipients (see proto.Envelope).
type Rewrite struct {
	Inner async.Process
	Hook  async.SendHook
}

var _ async.Process = (*Rewrite)(nil)

// Start implements async.Process.
func (r *Rewrite) Start(env *async.Env) {
	r.Inner.Start(async.HookedEnv(env, r.Hook))
}

// Deliver implements async.Process.
func (r *Rewrite) Deliver(env *async.Env, m async.Message) {
	r.Inner.Deliver(async.HookedEnv(env, r.Hook), m)
}

// MuteAfter wraps an honest process and silences it after the first
// `budget` outgoing messages — the "participate, then stall" deviation
// that punishment wills must deter.
func MuteAfter(inner async.Process, budget int) *Rewrite {
	sent := 0
	return &Rewrite{
		Inner: inner,
		Hook: func(to async.PID, payload any) (any, bool) {
			if sent >= budget {
				return nil, false
			}
			sent++
			return payload, true
		},
	}
}

// CorruptOpens wraps an honest process and adds a non-zero offset to every
// share it contributes to an opening or output reconstruction (the classic
// wrong-share attack, defeated by online error correction when at most the
// fault budget of parties do it).
func CorruptOpens(inner async.Process, offset field.Element) *Rewrite {
	return &Rewrite{
		Inner: inner,
		Hook: func(to async.PID, payload any) (any, bool) {
			env, ok := payload.(*proto.Envelope)
			if !ok || env == nil {
				return payload, true
			}
			sh, ok := env.Body.(avss.MsgShare)
			if !ok {
				return payload, true
			}
			sh.V = sh.V.Add(offset)
			return rewritten(env, sh), true
		},
	}
}

// CorruptAVSSPoints wraps an honest process and corrupts the pairwise
// check points it sends during verifiable secret sharing, attacking other
// parties' row verification: every component of a point vector gets the
// offset, in a copy, since the sent vector is shared like its envelope.
func CorruptAVSSPoints(inner async.Process, offset field.Element) *Rewrite {
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

// rewritten returns a copy of env carrying body. A sent envelope is
// immutable (a broadcast shares one across all recipients), so a hook
// never writes through env.
func rewritten(env *proto.Envelope, body any) *proto.Envelope {
	return &proto.Envelope{Instance: env.Instance, Body: body}
}

// Board is the coalition's shared blackboard: rational and malicious
// players (and a colluding scheduler) coordinate through it, which is
// legitimate per Section 6.1 — deviators and the environment can signal
// each other through the message pattern, so modelling the channel as
// shared memory loses nothing.
type Board struct {
	// Hints collects the Section 6.4 hint values by player index.
	Hints map[int]field.Element
	// Bait, once non-nil, is the coalition's decision to force a deadlock
	// (true) or let the run complete (false).
	Bait *bool
}

// NewBoard returns an empty blackboard.
func NewBoard() *Board { return &Board{Hints: make(map[int]field.Element)} }

// Decide sets the bait decision once.
func (b *Board) Decide(bait bool) {
	if b.Bait == nil {
		v := bait
		b.Bait = &v
	}
}

// HintPooler is a Section 6.4 coalition member in the mediator game: it
// behaves like the honest canonical player except that it posts its hint
// a+b*i to the coalition Board, and when the coalition holds two hints
// with indices of different parity it decodes b = hint_i XOR hint_j and
// baits the colluding scheduler into dropping the STOP batch iff b = 0
// (the coalition prefers the punishment payoff 1.1 to the payoff 1 of the
// b = 0 outcome).
type HintPooler struct {
	Mediator async.PID
	Index    int
	Board    *Board
	G        *game.Game
	Will     game.Action
}

var _ async.Process = (*HintPooler)(nil)

// Start implements async.Process.
func (h *HintPooler) Start(env *async.Env) {
	env.SetWill(h.Will)
	env.Send(h.Mediator, mediator.MsgInput{Round: 0, X: 0})
}

// Deliver implements async.Process.
func (h *HintPooler) Deliver(env *async.Env, msg async.Message) {
	if msg.From != h.Mediator {
		return
	}
	switch m := msg.Payload.(type) {
	case mediator.MsgRound:
		env.Send(h.Mediator, mediator.MsgInput{Round: m.R, X: 0})
	case mediator.MsgHint:
		h.Board.Hints[h.Index] = m.V
		h.tryDecode()
	case mediator.MsgStop:
		env.Decide(h.G.ActionFromField(int(env.Self()), m.Action))
		env.Halt()
	}
}

func (h *HintPooler) tryDecode() {
	if h.Board.Bait != nil {
		return
	}
	for i, hi := range h.Board.Hints {
		for j, hj := range h.Board.Hints {
			if (i-j)%2 != 0 {
				// b = hint_i XOR hint_j  (a cancels when i-j is odd).
				b := hi.Sub(hj)
				if b != 0 && b != 1 {
					b = 1 // values are mod-2 in the mediator; normalize
				}
				h.Board.Decide(b == 0)
				return
			}
		}
	}
}

// BaitScheduler is the relaxed scheduler colluding with HintPoolers: it
// delivers normally, but holds back every mediator batch after the first
// until the coalition posts its bait decision, then drops those batches
// (forcing the deadlock) or releases them.
type BaitScheduler struct {
	Base     async.Scheduler
	Mediator async.PID
	Board    *Board

	firstBatch   int
	haveFirst    bool
	droppedBatch map[async.BatchKey]bool
}

var _ async.Scheduler = (*BaitScheduler)(nil)

// Next implements async.Scheduler.
func (s *BaitScheduler) Next(v *async.View) (async.Event, bool) {
	if s.droppedBatch == nil {
		s.droppedBatch = make(map[async.BatchKey]bool)
	}
	// Identify the mediator's first batch (the hints).
	pending := v.Pending()
	for _, m := range pending {
		if m.From == s.Mediator && int(m.To) < v.Players {
			if !s.haveFirst {
				s.haveFirst = true
				s.firstBatch = m.Batch
			}
			break
		}
	}
	var held []async.MsgMeta
	var drops []async.BatchKey
	remaining := make([]async.MsgMeta, 0, len(pending))
	for _, m := range pending {
		late := s.haveFirst && m.From == s.Mediator && int(m.To) < v.Players && m.Batch != s.firstBatch
		if !late {
			remaining = append(remaining, m)
			continue
		}
		bk := async.BatchKey{From: m.From, Batch: m.Batch}
		switch {
		case s.droppedBatch[bk]:
			// already dropped
		case s.Board.Bait == nil:
			held = append(held, m) // hold until the coalition decides
		case *s.Board.Bait:
			s.droppedBatch[bk] = true
			drops = append(drops, bk)
		default:
			remaining = append(remaining, m) // released
		}
	}
	ev, ok := s.Base.Next(v.WithPending(remaining))
	if !ok {
		if len(drops) > 0 {
			return async.Event{Player: 0, DropBatches: drops}, true
		}
		if len(held) > 0 {
			// Nothing else deliverable: the coalition never decided (e.g.
			// with the minimally informative mediator there are no hints).
			// A relaxed scheduler may stall here — but honesty about the
			// attack's failure is the point, so release the held batch.
			m := held[0]
			return async.Event{Player: m.To, Deliver: []async.MsgID{m.ID}}, true
		}
		return async.Event{}, false
	}
	ev.DropBatches = append(ev.DropBatches, drops...)
	return ev, true
}

package async

import (
	"fmt"
	"math/rand"
)

// SchedulerByName constructs one of the fair schedulers by its CLI/API
// name: "roundrobin", "random" or "fifo". It is the single registry the
// CLIs and the service layer share, so adding a scheduler means adding
// it here once.
func SchedulerByName(name string, seed int64) (Scheduler, error) {
	switch name {
	case "roundrobin":
		return &RoundRobinScheduler{}, nil
	case "random":
		return NewRandomScheduler(seed), nil
	case "fifo":
		return &FIFOScheduler{}, nil
	default:
		return nil, fmt.Errorf("async: unknown scheduler %q (want roundrobin, random or fifo)", name)
	}
}

// RandomScheduler delivers a uniformly random pending message at each step
// (starting not-yet-started processes first with probability proportional
// to their count). Every message is eventually delivered almost surely, so
// it is a *fair* environment strategy in the paper's sense.
type RandomScheduler struct {
	rng     *rand.Rand
	deliver [1]MsgID // backs the Deliver of the event Next returns
}

// NewRandomScheduler returns a fair random scheduler with its own stream.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}
}

var _ Scheduler = (*RandomScheduler)(nil)

// Next implements Scheduler.
func (s *RandomScheduler) Next(v *View) (Event, bool) {
	// Schedulable choices: unstarted processes in PID order, then
	// deliverable messages (addressed to non-halted processes) in ID order.
	unstarted := v.Unstarted()
	total := unstarted + v.Deliverable()
	if total == 0 {
		return Event{}, false
	}
	k := s.rng.Intn(total)
	if k < unstarted {
		for p, st := range v.Started {
			if !st && !v.Halted[p] {
				if k == 0 {
					return Event{Player: PID(p)}, true
				}
				k--
			}
		}
	}
	m := v.KthDeliverable(k - unstarted)
	s.deliver[0] = m.ID
	return Event{Player: m.To, Deliver: s.deliver[:]}, true
}

// RoundRobinScheduler cycles deterministically over processes; each turn it
// starts the process if needed and delivers its oldest pending message.
// It is fair and fully deterministic, which makes it the default for
// reproducible protocol tests.
type RoundRobinScheduler struct {
	next    PID
	deliver [1]MsgID // backs the Deliver of the event Next returns
}

var _ Scheduler = (*RoundRobinScheduler)(nil)

// Next implements Scheduler.
func (s *RoundRobinScheduler) Next(v *View) (Event, bool) {
	for tries := 0; tries < v.N; tries++ {
		p := s.next
		s.next = (s.next + 1) % PID(v.N)
		if v.Halted[p] {
			continue
		}
		if !v.Started[p] {
			return Event{Player: p}, true
		}
		if m, ok := v.OldestFor(p); ok {
			s.deliver[0] = m.ID
			return Event{Player: p, Deliver: s.deliver[:]}, true
		}
	}
	return Event{}, false
}

// FIFOScheduler delivers messages in global send order: the oldest pending
// deliverable message goes first. Unstarted processes are started before
// any delivery. Deterministic and fair.
type FIFOScheduler struct {
	deliver [1]MsgID // backs the Deliver of the event Next returns
}

var _ Scheduler = (*FIFOScheduler)(nil)

// Next implements Scheduler.
func (s *FIFOScheduler) Next(v *View) (Event, bool) {
	if v.Unstarted() > 0 {
		for p, st := range v.Started {
			if !st && !v.Halted[p] {
				return Event{Player: PID(p)}, true
			}
		}
	}
	if v.Deliverable() == 0 {
		return Event{}, false
	}
	m := v.KthDeliverable(0)
	s.deliver[0] = m.ID
	return Event{Player: m.To, Deliver: s.deliver[:]}, true
}

// DelayScheduler wraps a base scheduler but refuses to deliver messages
// to or from Slow processes until no other choice remains, modelling a
// maximally unfavourable (but still fair) network for those processes.
type DelayScheduler struct {
	Base Scheduler
	Slow map[PID]bool
}

var _ Scheduler = (*DelayScheduler)(nil)

// Next implements Scheduler.
func (s *DelayScheduler) Next(v *View) (Event, bool) {
	// Present the base scheduler a filtered view without slow-party
	// messages; fall back to the true view when the filtered one is empty.
	var fast []MsgMeta
	for _, m := range v.Pending() {
		if s.Slow[m.From] || s.Slow[m.To] {
			continue
		}
		fast = append(fast, m)
	}
	anyUnstartedFast := false
	for p, st := range v.Started {
		if !st && !v.Halted[p] && !s.Slow[PID(p)] {
			anyUnstartedFast = true
		}
	}
	if len(fast) > 0 || anyUnstartedFast {
		if ev, ok := s.Base.Next(v.WithPending(fast)); ok {
			return ev, true
		}
	}
	return s.Base.Next(v)
}

// ScriptScheduler replays an explicit list of events, then defers to
// Fallback (or stops if Fallback is nil). It is used to drive protocols
// into specific corner states in tests.
type ScriptScheduler struct {
	Script   []Event
	Fallback Scheduler
	pos      int
}

var _ Scheduler = (*ScriptScheduler)(nil)

// Next implements Scheduler.
func (s *ScriptScheduler) Next(v *View) (Event, bool) {
	if s.pos < len(s.Script) {
		ev := s.Script[s.pos]
		s.pos++
		return ev, true
	}
	if s.Fallback != nil {
		return s.Fallback.Next(v)
	}
	return Event{}, false
}

// DropScheduler is a *relaxed* scheduler (Section 5): it behaves like Base
// but drops every batch for which ShouldDrop returns true, the moment such
// a batch appears in the pending set. Requires Config.Relaxed.
type DropScheduler struct {
	Base       Scheduler
	ShouldDrop func(MsgMeta) bool
	dropped    map[BatchKey]bool
}

var _ Scheduler = (*DropScheduler)(nil)

// Next implements Scheduler.
func (s *DropScheduler) Next(v *View) (Event, bool) {
	if s.dropped == nil {
		s.dropped = make(map[BatchKey]bool)
	}
	// Identify new batches to drop.
	var drops []BatchKey
	pending := v.Pending()
	remaining := make([]MsgMeta, 0, len(pending))
	for _, m := range pending {
		bk := BatchKey{From: m.From, Batch: m.Batch}
		if s.dropped[bk] {
			continue
		}
		if s.ShouldDrop != nil && s.ShouldDrop(m) {
			if !s.dropped[bk] {
				s.dropped[bk] = true
				drops = append(drops, bk)
			}
			continue
		}
		remaining = append(remaining, m)
	}
	ev, ok := s.Base.Next(v.WithPending(remaining))
	if !ok {
		if len(drops) > 0 {
			// Still need to register the drops; attach them to a no-op
			// event on process 0.
			return Event{Player: 0, DropBatches: drops}, true
		}
		return Event{}, false
	}
	ev.DropBatches = append(ev.DropBatches, drops...)
	return ev, true
}

// StallScheduler behaves like Base until Trigger fires (returns true), then
// stops scheduling entirely. With Config.Relaxed it models a relaxed
// scheduler that abandons the run mid-flight — the adversarial deadlock of
// Lemma 6.10. In non-relaxed runs stopping with pending messages is an
// error, which tests use to assert fairness enforcement.
type StallScheduler struct {
	Base    Scheduler
	Trigger func(*View) bool
	stalled bool
}

var _ Scheduler = (*StallScheduler)(nil)

// Next implements Scheduler.
func (s *StallScheduler) Next(v *View) (Event, bool) {
	if s.stalled || (s.Trigger != nil && s.Trigger(v)) {
		s.stalled = true
		return Event{}, false
	}
	return s.Base.Next(v)
}

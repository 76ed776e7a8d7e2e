package async

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chatterProc sends a configurable number of messages to random peers on
// start and relays a few on delivery, then halts — a randomized workload
// for conservation-law checks.
type chatterProc struct {
	fanout int
	relays int
	sent   int
}

func (c *chatterProc) Start(env *Env) {
	for i := 0; i < c.fanout; i++ {
		env.Send(PID(env.Rand().Intn(env.Players())), "m")
	}
}

func (c *chatterProc) Deliver(env *Env, m Message) {
	if c.sent < c.relays {
		c.sent++
		env.Send(PID(env.Rand().Intn(env.Players())), "r")
		return
	}
	env.Decide("done")
	env.Halt()
}

// TestConservationLaw checks, across randomized topologies and schedules,
// that every sent message is accounted for: delivered, dropped (to halted
// recipients), or still pending at quiescence is impossible for fair
// schedulers (the runtime ends only when nothing deliverable remains).
func TestConservationLaw(t *testing.T) {
	prop := func(seed int64, nRaw uint8, fanRaw, relayRaw uint8) bool {
		n := 2 + int(nRaw%5)
		fan := 1 + int(fanRaw%4)
		relays := int(relayRaw % 3)
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &chatterProc{fanout: fan, relays: relays}
		}
		rt, err := New(Config{Procs: procs, Scheduler: NewRandomScheduler(seed), Seed: seed})
		if err != nil {
			return false
		}
		res, err := rt.Run()
		if err != nil {
			return false
		}
		s := res.Stats
		// Delivered + dropped never exceeds sent; whatever remains was
		// addressed to halted processes (counted as neither).
		return s.MessagesDelivered+s.MessagesDropped <= s.MessagesSent
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// TestSeqNumbersMonotone checks per-pair sequence numbers are gapless and
// increasing in every trace, for random runs.
func TestSeqNumbersMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rec := &TraceRecorder{}
		procs := []Process{
			&chatterProc{fanout: 3, relays: 2},
			&chatterProc{fanout: 2, relays: 1},
			&chatterProc{fanout: 1, relays: 3},
		}
		rt, err := New(Config{Procs: procs, Scheduler: NewRandomScheduler(seed), Seed: seed, Trace: rec.Record})
		if err != nil {
			return false
		}
		if _, err := rt.Run(); err != nil {
			return false
		}
		next := map[[2]PID]int{}
		for _, m := range rec.Sent() {
			key := [2]PID{m.From, m.To}
			if m.Seq != next[key] {
				return false
			}
			next[key]++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

// TestDeliveredSubsetOfSent: every delivered message id was previously
// sent, across random runs (no phantom deliveries).
func TestDeliveredSubsetOfSent(t *testing.T) {
	prop := func(seed int64) bool {
		rec := &TraceRecorder{}
		procs := []Process{
			&chatterProc{fanout: 2, relays: 2},
			&chatterProc{fanout: 2, relays: 2},
			&chatterProc{fanout: 2, relays: 2},
			&chatterProc{fanout: 2, relays: 2},
		}
		rt, err := New(Config{Procs: procs, Scheduler: NewRandomScheduler(seed), Seed: seed, Trace: rec.Record})
		if err != nil {
			return false
		}
		if _, err := rt.Run(); err != nil {
			return false
		}
		sent := map[MsgID]bool{}
		for _, m := range rec.Sent() {
			sent[m.ID] = true
		}
		for _, e := range rec.Entries {
			for _, m := range e.Delivered {
				if !sent[m.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

package async

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// TestBadDeliveriesRejected: a delivery naming a message that is not
// pending is ErrBadEvent, never a panic, whatever the id.
func TestBadDeliveriesRejected(t *testing.T) {
	// Player 0's start sends messages 0 and 1 to player 1, which never halts.
	start := Event{Player: 0}
	cases := []struct {
		name   string
		script []Event
	}{
		{"negative id", []Event{start, {Player: 1, Deliver: []MsgID{-1}}}},
		{"id never sent", []Event{start, {Player: 1, Deliver: []MsgID{2}}}},
		{"id far beyond", []Event{start, {Player: 1, Deliver: []MsgID{1 << 40}}}},
		{"already delivered", []Event{start, {Player: 1, Deliver: []MsgID{0}}, {Player: 1, Deliver: []MsgID{0}}}},
		{"twice in one event", []Event{start, {Player: 1, Deliver: []MsgID{1, 1}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			procs := []Process{&sender{to: 1, payloads: []any{"x", "y"}}, &doubleDecider{}}
			rt, err := New(Config{Procs: procs, Scheduler: &ScriptScheduler{Script: c.script}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Run(); !errors.Is(err, ErrBadEvent) {
				t.Fatalf("err = %v, want ErrBadEvent", err)
			}
		})
	}
}

// burstPinger sends burst messages to its peer on start and one more per
// delivery, forever: the pending count stays at the two bursts' size
// while the messages ever sent grow with the run.
type burstPinger struct {
	peer  PID
	burst int
}

func (b *burstPinger) Start(env *Env) {
	for i := 0; i < b.burst; i++ {
		env.Send(b.peer, "x")
	}
}
func (b *burstPinger) Deliver(env *Env, m Message) { env.Send(b.peer, "x") }

// peakScheduler wraps a scheduler and records the runtime's largest
// pending count and slot array.
type peakScheduler struct {
	Scheduler
	rt               *Runtime
	peakLive, maxCap int
}

func (s *peakScheduler) Next(v *View) (Event, bool) {
	s.peakLive = max(s.peakLive, s.rt.pend.live)
	s.maxCap = max(s.maxCap, cap(s.rt.pend.slots))
	return s.Scheduler.Next(v)
}

// TestStorageBoundedByPeakPending: a livelocked run to ErrMaxSteps keeps
// slot storage within a small multiple of its peak pending count, not of
// the million messages it sends.
func TestStorageBoundedByPeakPending(t *testing.T) {
	const burst = 100
	procs := []Process{&burstPinger{peer: 1, burst: burst}, &burstPinger{peer: 0, burst: burst}}
	sched := &peakScheduler{Scheduler: NewRandomScheduler(3)}
	rt, err := New(Config{Procs: procs, Scheduler: sched, Seed: 3, MaxSteps: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	sched.rt = rt
	if _, err := rt.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	if rt.stats.MessagesSent < 1_000_000 {
		t.Fatalf("sent %d messages, want >= 1M", rt.stats.MessagesSent)
	}
	bound := max(minSlots, 4*sched.peakLive)
	if sched.maxCap > bound || len(rt.pend.tree) > bound>>blockBits+2 {
		t.Fatalf("slots %d, tree %d for peak pending %d; want <= %d", sched.maxCap, len(rt.pend.tree), sched.peakLive, bound)
	}
	if bits := 64 * (len(rt.pend.alive) + len(rt.pend.ready)); bits > 2*bound {
		t.Fatalf("bitmaps hold %d bits for peak pending %d; want <= %d", bits, sched.peakLive, 2*bound)
	}
	lanes := 0
	for _, l := range rt.pend.lanes {
		lanes += cap(l)
	}
	if lanes > 2*bound {
		t.Fatalf("lanes hold %d positions for peak pending %d", lanes, sched.peakLive)
	}
}

// bytesPerDelivery has process 0 send count messages to process 1 on
// start, runs the random scheduler until all are delivered, and returns
// the bytes allocated per delivered message.
func bytesPerDelivery(t *testing.T, count int) float64 {
	t.Helper()
	procs := []Process{&sender{to: 1, payloads: make([]any, count)}, &doubleDecider{}}
	rt, err := New(Config{Procs: procs, Scheduler: NewRandomScheduler(5), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := rt.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MessagesDelivered != count {
		t.Fatalf("delivered %d of %d", res.Stats.MessagesDelivered, count)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(count)
}

// TestAllocsPerDeliveryFlatInPending: the bytes a step allocates do not
// depend on how many messages are pending. A scheduler or runtime that
// copies or scans the pending set per step allocates in proportion to it,
// which would make the 16k run cost ~16x the 1k run per message.
func TestAllocsPerDeliveryFlatInPending(t *testing.T) {
	small := bytesPerDelivery(t, 1<<10)
	large := bytesPerDelivery(t, 1<<14)
	if diff := large - small; diff > 32 || diff < -32 {
		t.Fatalf("bytes per delivered message: %.1f at 1k pending, %.1f at 16k", small, large)
	}
}

// checkingScheduler wraps a scheduler and, at every step, checks each
// indexed query of the runtime's view against the same query answered by
// scanning the materialised pending list.
type checkingScheduler struct {
	Scheduler
	t    *testing.T
	fail bool
}

func (s *checkingScheduler) Next(v *View) (Event, bool) {
	ref := v.WithPending(v.Pending())
	if v.Deliverable() != ref.Deliverable() {
		s.t.Errorf("step %d: Deliverable %d, scan says %d", v.Steps, v.Deliverable(), ref.Deliverable())
		s.fail = true
	}
	for k := 0; k < ref.Deliverable(); k++ {
		if got, want := v.KthDeliverable(k), ref.KthDeliverable(k); got != want {
			s.t.Errorf("step %d: KthDeliverable(%d) = %+v, scan says %+v", v.Steps, k, got, want)
			s.fail = true
		}
	}
	for p := 0; p < v.N; p++ {
		got, gok := v.OldestFor(PID(p))
		want, wok := ref.OldestFor(PID(p))
		if got != want || gok != wok {
			s.t.Errorf("step %d: OldestFor(%d) = %+v %v, scan says %+v %v", v.Steps, p, got, gok, want, wok)
			s.fail = true
		}
	}
	return s.Scheduler.Next(v)
}

// TestIndexMatchesScan drives randomized chatter (halting processes,
// hundreds of messages, so slots are compacted mid-run) and checks the
// index against a scan at every step.
func TestIndexMatchesScan(t *testing.T) {
	prop := func(seed int64, nRaw, fanRaw, relayRaw uint8) bool {
		n := 2 + int(nRaw%5)
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &chatterProc{fanout: 1 + int(fanRaw%40), relays: int(relayRaw % 30)}
		}
		var base Scheduler = NewRandomScheduler(seed)
		if seed%2 == 0 {
			base = &RoundRobinScheduler{}
		}
		sched := &checkingScheduler{Scheduler: base, t: t}
		rt, err := New(Config{Procs: procs, Scheduler: sched, Seed: seed})
		if err != nil {
			return false
		}
		_, err = rt.Run()
		return err == nil && !sched.fail
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

// scanFind is find by linear scan: the position of the live slot holding
// id, or -1.
func scanFind(s *pendingSet, id MsgID) int {
	for i := range s.slots {
		if s.slots[i].ID == id && bitGet(s.alive, i) {
			return i
		}
	}
	return -1
}

// TestFindMatchesScan drives a pendingSet through random sends, removals,
// kth and oldest lookups and one halt, across many compactions, and after
// every operation checks find against a linear scan: for the message the
// last lookup returned (still live, since removed, or moved by a
// compaction) and for a random id.
func TestFindMatchesScan(t *testing.T) {
	const n, ops = 4, 3000
	rng := rand.New(rand.NewSource(9))
	var dead, moved, compactions int
	for trial := 0; trial < 20; trial++ {
		halted := make([]bool, n)
		s := newPendingSet(halted)
		var next MsgID
		looked := MsgID(-1) // the message kth or oldest last returned
		haltAt := rng.Intn(ops)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case op == haltAt:
				s.halt(1)
				halted[1] = true
			case r < 4:
				before := len(s.slots)
				s.add(Message{ID: next, To: PID(rng.Intn(n))})
				next++
				if len(s.slots) <= before {
					compactions++
				}
			case r < 6 && s.live > 0:
				// Half the time remove what the last lookup returned, as
				// the runtime does after a scheduler picks it.
				pos := scanFind(&s, looked)
				if pos < 0 || rng.Intn(2) == 0 {
					for pos = rng.Intn(len(s.slots)); !bitGet(s.alive, pos); pos = (pos + 1) % len(s.slots) {
					}
				}
				s.remove(pos)
			case r < 8 && s.deliverable > 0:
				looked = s.slots[s.kth(rng.Intn(s.deliverable))].ID
			case r >= 8:
				if pos := s.oldest(PID(rng.Intn(n))); pos >= 0 {
					looked = s.slots[pos].ID
				}
			}
			switch pos := scanFind(&s, looked); {
			case looked >= 0 && pos < 0:
				dead++
			case pos >= 0 && pos != s.last:
				moved++
			}
			for _, id := range []MsgID{looked, MsgID(rng.Int63n(int64(next)+2)) - 1} {
				if got, want := s.find(id), scanFind(&s, id); got != want {
					t.Fatalf("trial %d op %d: find(%d) = %d, scan says %d", trial, op, id, got, want)
				}
			}
		}
	}
	if dead == 0 || moved == 0 || compactions == 0 {
		t.Fatalf("never exercised a case: %d dead, %d moved, %d compactions", dead, moved, compactions)
	}
}

// FuzzPendingSet turns bytes into a sequence of add, remove, kth, oldest
// and halt operations on a pendingSet, across compactions, and after each
// operation checks find, kth, oldest and the deliverable count against a
// linear scan of a plain model: the pending messages in ID order.
//
// The first byte picks the number of recipients; then every two bytes are
// one operation (opcode, argument). Only the first maxFuzzOps operations
// run, so the quadratic model keeps one input to milliseconds.
func FuzzPendingSet(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 3, 0, 4, 1})
	f.Add(bytes.Repeat([]byte{0, 7, 1, 200, 2, 3, 3, 128, 4, 2}, 150))
	f.Add(append(bytes.Repeat([]byte{0, 1, 1, 9}, 300), bytes.Repeat([]byte{2, 1, 2, 40, 5, 1, 3, 250}, 200)...))
	f.Add(bytes.Repeat([]byte{5, 0, 5, 2, 0, 0, 6, 3, 99, 2, 1}, 100))
	const maxFuzzOps = 2048
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		b = b[:min(len(b), 1+2*maxFuzzOps)]
		n := 1 + int(b[0]%8)
		halted := make([]bool, n)
		s := newPendingSet(halted)
		var model []Message // pending messages, in ID order
		pending := map[MsgID]bool{}
		ready := 0 // how many of model are to a process not halted
		var next MsgID
		looked := MsgID(-1) // the message kth or oldest last returned
		kthReady := func(k int) Message {
			for _, m := range model {
				if !halted[m.To] {
					if k == 0 {
						return m
					}
					k--
				}
			}
			panic("kthReady out of range")
		}
		for i := 1; i+1 < len(b); i += 2 {
			op, arg := b[i]%6, int(b[i+1])
			switch {
			case op <= 1: // adds weigh double, so the set grows and compacts
				m := Message{ID: next, To: PID(arg % n), Seq: arg}
				next++
				s.add(m)
				model = append(model, m)
				pending[m.ID] = true
				if !halted[m.To] {
					ready++
				}
			case op == 2 && len(model) > 0:
				// Odd arguments remove what the last lookup returned, as
				// the runtime does after a scheduler picks it.
				j := arg % len(model)
				for k, m := range model {
					if m.ID == looked && arg%2 == 1 {
						j = k
						break
					}
				}
				pos := s.find(model[j].ID)
				if pos < 0 {
					t.Fatalf("op %d: pending message %d not found", i, model[j].ID)
				}
				if got := s.remove(pos); got != model[j] {
					t.Fatalf("op %d: remove(%d) = %+v, want %+v", i, pos, got, model[j])
				}
				if !halted[model[j].To] {
					ready--
				}
				delete(pending, model[j].ID)
				model = append(model[:j], model[j+1:]...)
			case op == 3 && ready > 0:
				k := arg * ready / 256
				pos, want := s.kth(k), kthReady(k)
				if s.slots[pos] != want {
					t.Fatalf("op %d: kth(%d) = %+v, scan says %+v", i, k, s.slots[pos], want)
				}
				looked = want.ID
			case op == 4:
				p := PID(arg % n)
				want := -1
				for j, m := range model {
					if m.To == p {
						want = j
						break
					}
				}
				switch pos := s.oldest(p); {
				case want < 0 && pos >= 0:
					t.Fatalf("op %d: oldest(%d) = %+v, scan says none", i, p, s.slots[pos])
				case want >= 0 && (pos < 0 || s.slots[pos] != model[want]):
					t.Fatalf("op %d: oldest(%d) at %d, scan says %+v", i, p, pos, model[want])
				case want >= 0:
					looked = model[want].ID
				}
			case op == 5 && !halted[arg%n]:
				s.halt(PID(arg % n))
				halted[arg%n] = true
				for _, m := range model {
					if m.To == PID(arg%n) {
						ready--
					}
				}
			}
			if s.live != len(model) || s.deliverable != ready {
				t.Fatalf("op %d: live %d, deliverable %d; scan says %d, %d", i, s.live, s.deliverable, len(model), ready)
			}
			for _, id := range []MsgID{looked, MsgID(arg) - 1, next - 1 - MsgID(arg), next} {
				switch pos := s.find(id); {
				case !pending[id] && pos >= 0:
					t.Fatalf("op %d: find(%d) = %d, scan says not pending", i, id, pos)
				case pending[id] && (pos < 0 || s.slots[pos].ID != id):
					t.Fatalf("op %d: find(%d) = %d, scan says pending", i, id, pos)
				}
			}
		}
		// A last full sweep: every deliverable message by rank, every
		// pending message by id, every recipient's oldest.
		for k := 0; k < ready; k++ {
			if pos, m := s.kth(k), kthReady(k); s.slots[pos] != m {
				t.Fatalf("kth(%d) = %+v, scan says %+v", k, s.slots[pos], m)
			}
		}
		for _, m := range model {
			if pos := s.find(m.ID); pos < 0 || s.slots[pos] != m {
				t.Fatalf("find(%d) = %d, scan says %+v", m.ID, pos, m)
			}
		}
		for p := 0; p < n; p++ {
			pos := s.oldest(PID(p))
			for _, m := range model {
				if m.To == PID(p) {
					if pos < 0 || s.slots[pos] != m {
						t.Fatalf("oldest(%d) at %d, scan says %+v", p, pos, m)
					}
					break
				}
			}
		}
	})
}

package async

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
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
// pending count and the largest index storage it used at any step.
type peakScheduler struct {
	Scheduler
	rt                                 *Runtime
	peakLive, maxCap, maxTree, maxBits int
	maxLanes                           int
}

func (s *peakScheduler) Next(v *View) (Event, bool) {
	p := &s.rt.pend
	s.peakLive = max(s.peakLive, p.live)
	s.maxCap = max(s.maxCap, cap(p.slots))
	s.maxTree = max(s.maxTree, len(p.tree))
	s.maxBits = max(s.maxBits, 64*(len(p.alive)+len(p.ready)))
	lanes := 0
	for _, l := range p.lanes {
		lanes += cap(l.pos)
	}
	s.maxLanes = max(s.maxLanes, lanes)
	return s.Scheduler.Next(v)
}

// TestStorageBoundedByPeakPending: a livelocked run to ErrMaxSteps keeps
// slot storage within a small multiple of its peak pending count, not of
// the million messages it sends. The run starts on fresh storage, so a
// larger store recycled from an earlier run cannot hide the bound.
func TestStorageBoundedByPeakPending(t *testing.T) {
	const burst = 100
	procs := []Process{&burstPinger{peer: 1, burst: burst}, &burstPinger{peer: 0, burst: burst}}
	sched := &peakScheduler{Scheduler: NewRandomScheduler(3)}
	rt, err := New(Config{Procs: procs, Scheduler: sched, Seed: 3, MaxSteps: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	rt.pend = newPendingSet(rt.halted, new(pendStore))
	sched.rt = rt
	if _, err := rt.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	if rt.stats.MessagesSent < 1_000_000 {
		t.Fatalf("sent %d messages, want >= 1M", rt.stats.MessagesSent)
	}
	bound := max(minSlots, 4*sched.peakLive)
	if sched.maxCap > bound || sched.maxTree > bound>>blockBits+2 {
		t.Fatalf("slots %d, tree %d for peak pending %d; want <= %d", sched.maxCap, sched.maxTree, sched.peakLive, bound)
	}
	if sched.maxBits > 2*bound {
		t.Fatalf("bitmaps hold %d bits for peak pending %d; want <= %d", sched.maxBits, sched.peakLive, 2*bound)
	}
	if sched.maxLanes > 2*bound {
		t.Fatalf("lanes hold %d positions for peak pending %d", sched.maxLanes, sched.peakLive)
	}
}

// bytesPerDelivery has process 0 send count messages to process 1 on
// start, runs the random scheduler until all are delivered, and returns
// the bytes allocated per delivered message. It measures warm runs: one
// run first grows the pooled index storage to the size, so the storage
// earlier tests left in the pool cannot change the result, and the least
// of three measured runs is kept, in case a collection empties the pool
// between two of them.
func bytesPerDelivery(t *testing.T, count int) float64 {
	t.Helper()
	run := func() float64 {
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
	run()
	least := run()
	for range 2 {
		least = min(least, run())
	}
	return least
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
	t.Logf("bytes per delivered message: %.1f at 1k pending, %.1f at 16k", small, large)
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
		s := newPendingSet(halted, new(pendStore))
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
// plain model: the pending messages in ID order, and the deliverable ones.
//
// Each input runs three times: on fresh storage, on the storage the first
// run released (dirty bitmaps, tree and lanes), and on a copy of the
// storage a larger set released (more recipients, a longer slot array),
// built once per fuzz process. Released storage must hold no payload.
//
// The first byte picks the number of recipients; then every two bytes are
// one operation (opcode, argument), run 2^(opcode/6 mod 8) times in a row
// (adds to successive recipients), so a short input builds and churns a
// large set. Each input stops after maxFuzzOps operations.
//
// Short inputs keep the fuzzer moving: it minimizes every input that
// finds new coverage, which costs time quadratic in the input's length,
// and a minimization of the multi-kilobyte inputs that one byte pair per
// operation needed outlasted a 30 s run. The model answers kth by index
// and finds by binary search, so an input costs well under a millisecond.
func FuzzPendingSet(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 3, 0, 4, 1})
	// Eight recipients: 128 adds, lookups, 17 removes, five times over,
	// so the set passes 512 slots (two tree blocks) through compactions.
	f.Add(append([]byte{7}, bytes.Repeat([]byte{42, 1, 3, 77, 4, 5, 26, 9, 3, 200, 2, 4}, 5)...))
	// One recipient: 640 adds, then removes in runs between lookups.
	f.Add(append(append([]byte{0}, bytes.Repeat([]byte{42, 1}, 5)...), bytes.Repeat([]byte{2, 1, 26, 40, 3, 250, 20, 3}, 12)...))
	// Six recipients halting one by one while messages wait for them.
	f.Add(append([]byte{5}, bytes.Repeat([]byte{30, 0, 5, 2, 3, 99, 4, 2, 26, 1, 5, 4, 30, 3, 5, 0}, 4)...))
	f.Add([]byte{5, 4, 0, 4, 3, 5, 2, 0, 3, 4, 3}) // lookups and a halt before the first send
	larger := largerReleasedStore(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		st := replayPendingOps(t, b, new(pendStore))
		replayPendingOps(t, b, st)
		replayPendingOps(t, b, larger.clone())
	})
}

// largerReleasedStore returns the storage of a set of 11 recipients that
// grew to thousands of slots, with one recipient halted and about a third
// of its messages still pending when it was released.
func largerReleasedStore(t testing.TB) *pendStore {
	halted := make([]bool, 11)
	s := newPendingSet(halted, new(pendStore))
	for id := MsgID(0); id < 6000; id++ {
		s.add(Message{ID: id, To: PID(id % 11), Payload: id})
		if id == 3000 {
			s.halt(4)
			halted[4] = true
		}
		if id%3 != 0 {
			s.remove(s.find(id))
		}
		if id%7 == 0 {
			s.oldest(PID(id % 11))
		}
	}
	// Fill the array, each send retiring its recipient's oldest message,
	// and send once more: the store is released just after an in-place
	// compaction has moved live messages down.
	id := MsgID(6000)
	for full := false; !full; id++ {
		full = len(s.slots) == cap(s.slots)
		if pos := s.oldest(PID(id % 11)); pos >= 0 {
			s.remove(pos)
		}
		s.add(Message{ID: id, To: PID(id % 11), Payload: id})
	}
	return releaseChecked(t, &s)
}

// clone returns a deep copy of st: every array at its capacity, with the
// stale contents a set left in it.
func (st *pendStore) clone() *pendStore {
	c := &pendStore{
		slots: cloneFull(st.slots), alive: cloneFull(st.alive), ready: cloneFull(st.ready),
		tree: cloneFull(st.tree), lanes: cloneFull(st.lanes),
	}
	for i := range c.lanes {
		c.lanes[i].pos = cloneFull(c.lanes[i].pos)
	}
	return c
}

// cloneFull copies s, the elements past its length up to its capacity
// included.
func cloneFull[T any](s []T) []T {
	c := make([]T, len(s), cap(s))
	copy(c[:cap(s)], s[:cap(s)])
	return c
}

// releaseChecked releases s and fails if the store it returns still holds
// a payload.
func releaseChecked(t testing.TB, s *pendingSet) *pendStore {
	t.Helper()
	st := s.release()
	for i, m := range st.slots {
		if m.Payload != nil {
			t.Fatalf("released store: slot %d still holds payload %v", i, m.Payload)
		}
	}
	return st
}

// maxFuzzOps bounds the operations one FuzzPendingSet input runs.
const maxFuzzOps = 1024

// replayPendingOps runs FuzzPendingSet's operations b on a set built on
// st and returns the storage the set releases.
func replayPendingOps(t *testing.T, b []byte, st *pendStore) *pendStore {
	t.Helper()
	n := 1 + int(b[0]%8)
	halted := make([]bool, n)
	s := newPendingSet(halted, st)
	var model []Message // pending messages, in ID order
	var ready []Message // the messages of model to a process not halted
	pending := map[MsgID]bool{}
	var next MsgID
	looked := MsgID(-1) // the message kth or oldest last returned
	// index returns where the message id sits in ms (ID order), or -1.
	index := func(ms []Message, id MsgID) int {
		j, ok := slices.BinarySearchFunc(ms, id, func(m Message, id MsgID) int { return cmp.Compare(m.ID, id) })
		if !ok {
			return -1
		}
		return j
	}
	ran := 0 // operations run, repeats included
	for i := 1; i+1 < len(b) && ran < maxFuzzOps; i += 2 {
		op, arg := b[i]%6, int(b[i+1])
		for r := 0; r < 1<<(b[i]/6%8) && ran < maxFuzzOps; r++ {
			ran++
			switch {
			case op <= 1: // adds weigh double, so the set grows and compacts
				m := Message{ID: next, To: PID((arg + r) % n), Seq: arg, Payload: arg}
				next++
				s.add(m)
				model = append(model, m)
				pending[m.ID] = true
				if !halted[m.To] {
					ready = append(ready, m)
				}
			case op == 2 && len(model) > 0:
				// Odd arguments remove what the last lookup returned, as
				// the runtime does after a scheduler picks it.
				j := arg % len(model)
				if k := index(model, looked); k >= 0 && arg%2 == 1 {
					j = k
				}
				pos := s.find(model[j].ID)
				if pos < 0 {
					t.Fatalf("op %d: pending message %d not found", i, model[j].ID)
				}
				if got := s.remove(pos); got != model[j] {
					t.Fatalf("op %d: remove(%d) = %+v, want %+v", i, pos, got, model[j])
				}
				if k := index(ready, model[j].ID); k >= 0 {
					ready = slices.Delete(ready, k, k+1)
				}
				delete(pending, model[j].ID)
				model = slices.Delete(model, j, j+1)
			case op == 3 && len(ready) > 0:
				k := arg * len(ready) / 256
				pos, want := s.kth(k), ready[k]
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
				ready = slices.DeleteFunc(ready, func(m Message) bool { return m.To == PID(arg%n) })
			}
			if s.live != len(model) || s.deliverable != len(ready) {
				t.Fatalf("op %d: live %d, deliverable %d; scan says %d, %d", i, s.live, s.deliverable, len(model), len(ready))
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
	}
	// A last full sweep: every deliverable message by rank, every
	// pending message by id, every recipient's oldest.
	for k, m := range ready {
		if pos := s.kth(k); s.slots[pos] != m {
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
	return releaseChecked(t, &s)
}

// recyclePlay is one traced chatter play: n processes that send fanout
// messages to peers their random streams pick and relay relays more,
// under the random scheduler.
type recyclePlay struct {
	n, fanout, relays int
	seed              int64
}

// start builds p's runtime, which appends one line per step to *trace.
func (p recyclePlay) start(trace *[]string) (*Runtime, error) {
	procs := make([]Process, p.n)
	for i := range procs {
		procs[i] = &chatterProc{fanout: p.fanout, relays: p.relays}
	}
	return New(Config{
		Procs: procs, Scheduler: NewRandomScheduler(p.seed), Seed: p.seed,
		Trace: func(e TraceEntry) { *trace = append(*trace, fmt.Sprint(e)) },
	})
}

// finish runs rt and returns trace with the result appended.
func finish(rt *Runtime, trace []string) ([]string, error) {
	res, err := rt.Run()
	if err != nil {
		return nil, err
	}
	return append(trace, fmt.Sprint(res.Moves, res.Halted, res.Stats)), nil
}

// run plays p with its pending index on st and returns the trace, one
// line per step plus the result, and the error of a second Run. With
// fresh, the party streams are new sources instead of pooled ones.
func (p recyclePlay) run(t *testing.T, st *pendStore, fresh bool) (trace []string, again error) {
	t.Helper()
	rt, err := p.start(&trace)
	if err != nil {
		t.Fatal(err)
	}
	rt.pend = newPendingSet(rt.halted, st)
	if fresh {
		for i := range rt.rngs {
			rt.rngs[i] = rand.New(rand.NewSource(p.seed*1_000_003 + int64(i)))
		}
	}
	if trace, err = finish(rt, trace); err != nil {
		t.Fatal(err)
	}
	_, again = rt.Run()
	return trace, again
}

// TestRecycledStorageReplaysFreshRuns: plays run back to back on one
// recycled pending store, the larger play's before the smaller's and
// after it, with pooled party streams, give the traces the same plays
// give on fresh storage with fresh sources. A second Run on a Runtime is
// an error.
func TestRecycledStorageReplaysFreshRuns(t *testing.T) {
	large := recyclePlay{n: 7, fanout: 40, relays: 25, seed: 11}
	small := recyclePlay{n: 3, fanout: 5, relays: 3, seed: 4}
	want := map[recyclePlay][]string{}
	for _, p := range []recyclePlay{large, small} {
		want[p], _ = p.run(t, new(pendStore), true)
	}
	st := new(pendStore)
	for i, p := range []recyclePlay{large, small, large, small} {
		got, again := p.run(t, st, false)
		if again == nil {
			t.Fatalf("play %d: a second Run returned no error", i)
		}
		if !reflect.DeepEqual(got, want[p]) {
			t.Fatalf("play %d (%+v) on recycled storage: trace differs from a fresh run's (%d against %d steps)", i, p, len(got), len(want[p]))
		}
	}
	if cap(st.slots) < 2*minSlots {
		t.Fatalf("the store grew to %d slots: the large play never left it dirty", cap(st.slots))
	}
}

// TestConcurrentPlaysShareThePools: runtimes on several goroutines at once
// take their index storage and streams from the shared pools and hand
// them back, and every play still gives its fresh run's trace. Run it
// with -race.
func TestConcurrentPlaysShareThePools(t *testing.T) {
	plays := []recyclePlay{{n: 7, fanout: 40, relays: 25, seed: 11}, {n: 3, fanout: 5, relays: 3, seed: 4}, {n: 5, fanout: 9, relays: 6, seed: 8}}
	want := make([][]string, len(plays))
	for i, p := range plays {
		want[i], _ = p.run(t, new(pendStore), true)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 12 {
				k := (g + i) % len(plays)
				got, err := plays[k].pooled()
				if err != nil || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d play %d (%+v): err %v, or the trace differs from a fresh run's", g, i, plays[k], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// pooled plays p on pooled storage and streams and returns its trace as
// run does, or the error Run returned.
func (p recyclePlay) pooled() ([]string, error) {
	var trace []string
	rt, err := p.start(&trace)
	if err != nil {
		return nil, err
	}
	return finish(rt, trace)
}

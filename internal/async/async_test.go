package async

import (
	"errors"
	"testing"
)

// echoProc decides on the first payload it receives and halts after
// echoing it back to the sender.
type echoProc struct{}

func (echoProc) Start(env *Env) {}
func (echoProc) Deliver(env *Env, m Message) {
	env.Send(m.From, m.Payload)
	env.Decide(m.Payload)
	env.Halt()
}

// initiatorProc sends "ping" to the first n processes (every player when
// n is 0) on start, decides when it hears any reply.
type initiatorProc struct {
	decidedOn any
	n         int
}

func (p *initiatorProc) Start(env *Env) {
	n := p.n
	if n == 0 {
		n = env.Players()
	}
	for i := 0; i < n; i++ {
		if PID(i) != env.Self() {
			env.Send(PID(i), "ping")
		}
	}
}
func (p *initiatorProc) Deliver(env *Env, m Message) {
	env.Decide(m.Payload)
	env.Halt()
}

func TestPingPongRoundRobin(t *testing.T) {
	procs := []Process{&initiatorProc{}, echoProc{}, echoProc{}}
	rt, err := New(Config{Procs: procs, Scheduler: &RoundRobinScheduler{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if res.Moves[0] != "ping" {
		t.Fatalf("initiator decided %v, want ping", res.Moves[0])
	}
	if res.Moves[1] != "ping" || res.Moves[2] != "ping" {
		t.Fatalf("echoers decided %v, %v", res.Moves[1], res.Moves[2])
	}
	if res.Stats.MessagesSent != 4 { // 2 pings + 2 echoes
		t.Fatalf("MessagesSent = %d, want 4", res.Stats.MessagesSent)
	}
}

func TestPingPongAllSchedulers(t *testing.T) {
	scheds := map[string]func() Scheduler{
		"random":     func() Scheduler { return NewRandomScheduler(7) },
		"roundrobin": func() Scheduler { return &RoundRobinScheduler{} },
		"fifo":       func() Scheduler { return &FIFOScheduler{} },
		"delay": func() Scheduler {
			return &DelayScheduler{Base: &FIFOScheduler{}, Slow: map[PID]bool{1: true}}
		},
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			procs := []Process{&initiatorProc{}, echoProc{}, echoProc{}}
			rt, err := New(Config{Procs: procs, Scheduler: mk(), Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Moves[0] != "ping" {
				t.Fatalf("initiator decided %v", res.Moves[0])
			}
		})
	}
}

// silentProc never decides or halts: it waits forever for a message that
// never comes, modelling the deadlocked player of the AH-wills discussion.
type silentProc struct{}

func (silentProc) Start(env *Env)              { env.SetWill("punish") }
func (silentProc) Deliver(env *Env, m Message) {}

func TestDeadlockAndWills(t *testing.T) {
	procs := []Process{silentProc{}, silentProc{}}
	rt, err := New(Config{Procs: procs, Scheduler: &FIFOScheduler{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected deadlock")
	}
	for p := PID(0); p < 2; p++ {
		if _, moved := res.Moves[p]; moved || res.Wills[p] != "punish" {
			t.Fatalf("player %d: move %v, will %v; want only the will punish", p, res.Moves[p], res.Wills[p])
		}
	}
}

func TestDecideOnlyOnce(t *testing.T) {
	procs := []Process{&doubleDecider{}, &sender{to: 0, payloads: []any{"a", "b"}}}
	rt, _ := New(Config{Procs: procs, Scheduler: &FIFOScheduler{}, Seed: 5})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves[0] != "a" {
		t.Fatalf("move = %v, want first decision a", res.Moves[0])
	}
}

type doubleDecider struct{}

func (*doubleDecider) Start(env *Env) {}
func (*doubleDecider) Deliver(env *Env, m Message) {
	env.Decide(m.Payload)
}

type sender struct {
	to       PID
	payloads []any
}

func (s *sender) Start(env *Env) {
	for _, p := range s.payloads {
		env.Send(s.to, p)
	}
	env.Halt()
}
func (s *sender) Deliver(env *Env, m Message) {}

func TestSeqNumbersAndBatches(t *testing.T) {
	var entries []TraceEntry
	procs := []Process{&doubleDecider{}, &sender{to: 0, payloads: []any{"a", "b"}}}
	rt, _ := New(Config{
		Procs:     procs,
		Scheduler: &FIFOScheduler{},
		Seed:      6,
		Trace:     func(te TraceEntry) { entries = append(entries, te) },
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var sent []MsgMeta
	for _, te := range entries {
		sent = append(sent, te.Sent...)
	}
	if len(sent) != 2 {
		t.Fatalf("sent %d messages, want 2", len(sent))
	}
	if sent[0].Seq != 0 || sent[1].Seq != 1 {
		t.Fatalf("seqs = %d,%d; want 0,1", sent[0].Seq, sent[1].Seq)
	}
	if sent[0].Batch != sent[1].Batch {
		t.Fatal("messages from one activation must share a batch")
	}
}

func TestMaxStepsLivelockGuard(t *testing.T) {
	// Two processes ping each other forever.
	procs := []Process{&forever{peer: 1}, &forever{peer: 0}}
	rt, _ := New(Config{Procs: procs, Scheduler: &FIFOScheduler{}, Seed: 7, MaxSteps: 500})
	_, err := rt.Run()
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

type forever struct{ peer PID }

func (f *forever) Start(env *Env)              { env.Send(f.peer, "x") }
func (f *forever) Deliver(env *Env, m Message) { env.Send(f.peer, "x") }

func TestUnfairStopRejected(t *testing.T) {
	// A non-relaxed scheduler stopping with undelivered messages is an error.
	procs := []Process{&sender{to: 1, payloads: []any{"x"}}, &doubleDecider{}}
	sched := &StallScheduler{
		Base:    &FIFOScheduler{},
		Trigger: func(v *View) bool { return len(v.Pending()) > 0 },
	}
	rt, _ := New(Config{Procs: procs, Scheduler: sched, Seed: 8})
	_, err := rt.Run()
	if !errors.Is(err, ErrUnfairStop) {
		t.Fatalf("err = %v, want ErrUnfairStop", err)
	}
}

func TestRelaxedStallProducesDeadlock(t *testing.T) {
	procs := []Process{&sender{to: 1, payloads: []any{"x"}}, &doubleDecider{}}
	sched := &StallScheduler{
		Base:    &FIFOScheduler{},
		Trigger: func(v *View) bool { return len(v.Pending()) > 0 },
	}
	rt, _ := New(Config{Procs: procs, Scheduler: sched, Seed: 9, Relaxed: true})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected deadlock: player 1 never received its message")
	}
}

func TestDropNotAllowedUnrelaxed(t *testing.T) {
	procs := []Process{&sender{to: 1, payloads: []any{"x"}}, &doubleDecider{}}
	script := &ScriptScheduler{Script: []Event{
		{Player: 0}, // start sender; it emits batch 1
		{Player: 1, DropBatches: []BatchKey{{From: 0, Batch: 1}}},
	}}
	rt, _ := New(Config{Procs: procs, Scheduler: script, Seed: 10})
	_, err := rt.Run()
	if !errors.Is(err, ErrDropNotAllowed) {
		t.Fatalf("err = %v, want ErrDropNotAllowed", err)
	}
}

func TestDropBatchAtomic(t *testing.T) {
	// Batch with one message already delivered cannot be dropped
	// (all-or-none rule, Section 5).
	procs := []Process{&sender{to: 1, payloads: []any{"x", "y"}}, &doubleDecider{}}
	// sender's Start is its first activation => batch 1 holds both messages.
	script := &ScriptScheduler{Script: []Event{
		{Player: 0},
	}}
	rt, _ := New(Config{Procs: procs, Scheduler: &firstThenDrop{inner: script}, Seed: 11, Relaxed: true})
	_, err := rt.Run()
	if !errors.Is(err, ErrBadEvent) {
		t.Fatalf("err = %v, want ErrBadEvent (partial batch drop)", err)
	}
}

// firstThenDrop starts the sender, delivers the first message, then tries
// to drop the (now partially delivered) batch.
type firstThenDrop struct {
	inner *ScriptScheduler
	phase int
}

func (s *firstThenDrop) Next(v *View) (Event, bool) {
	switch s.phase {
	case 0:
		s.phase++
		return Event{Player: 0}, true // sender start: emits batch 1
	case 1:
		s.phase++
		return Event{Player: 1, Deliver: []MsgID{v.Pending()[0].ID}}, true
	case 2:
		s.phase++
		return Event{Player: 1, DropBatches: []BatchKey{{From: 0, Batch: 1}}}, true
	default:
		return Event{}, false
	}
}

func TestDropSchedulerDropsMediatorStop(t *testing.T) {
	// Drop everything player 0 sends: recipient deadlocks.
	procs := []Process{&sender{to: 1, payloads: []any{"stop"}}, &doubleDecider{}}
	sched := &DropScheduler{
		Base:       &FIFOScheduler{},
		ShouldDrop: func(m MsgMeta) bool { return m.From == 0 },
	}
	rt, _ := New(Config{Procs: procs, Scheduler: sched, Seed: 12, Relaxed: true})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("expected deadlock after dropping the only message")
	}
	if res.Stats.MessagesDropped != 1 {
		t.Fatalf("MessagesDropped = %d, want 1", res.Stats.MessagesDropped)
	}
}

func TestHaltedProcessGetsNoDeliveries(t *testing.T) {
	procs := []Process{&haltOnStart{}, &sender{to: 0, payloads: []any{"late"}}}
	rt, _ := New(Config{Procs: procs, Scheduler: &FIFOScheduler{}, Seed: 13})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Moves[0]; ok {
		t.Fatal("halted process should not have decided")
	}
}

type haltOnStart struct{}

func (*haltOnStart) Start(env *Env)              { env.Halt() }
func (*haltOnStart) Deliver(env *Env, m Message) { env.Decide(m.Payload) }

func TestSendToInvalidPIDIgnored(t *testing.T) {
	procs := []Process{&sender{to: 99, payloads: []any{"x"}}}
	rt, _ := New(Config{Procs: procs, Scheduler: &FIFOScheduler{}, Seed: 14})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := New(Config{Procs: []Process{echoProc{}}}); err == nil {
		t.Error("missing scheduler should fail")
	}
	if _, err := New(Config{Procs: []Process{echoProc{}}, Scheduler: &FIFOScheduler{}, Players: 5}); err == nil {
		t.Error("Players > len(Procs) should fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		procs := []Process{&initiatorProc{}, echoProc{}, echoProc{}}
		rt, _ := New(Config{Procs: procs, Scheduler: NewRandomScheduler(42), Seed: 42})
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Steps != b.Stats.Steps || a.Stats.MessagesSent != b.Stats.MessagesSent {
		t.Fatal("runs with identical seeds diverged")
	}
}

func TestAuxiliaryPlayersExcludedFromDeadlock(t *testing.T) {
	// Process 1 is an auxiliary (mediator-like): it never decides, but the
	// run is not deadlocked because all real players decided.
	procs := []Process{&initiatorProc{n: 2}, echoProc{}}
	rt, _ := New(Config{Procs: procs, Players: 1, Scheduler: &FIFOScheduler{}, Seed: 15})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("auxiliary non-decision must not count as deadlock")
	}
}

type broadcaster struct{}

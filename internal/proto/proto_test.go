package proto

import (
	"fmt"
	"reflect"
	"testing"

	"asyncmediator/internal/async"
)

// buildHosts creates n hosts, applies setup to each, and runs them under a
// round-robin scheduler.
func runHosts(t *testing.T, n int, setup func(i int, h *Host)) []*Host {
	t.Helper()
	hosts := make([]*Host, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		hosts[i] = NewHost()
		setup(i, hosts[i])
		procs[i] = hosts[i]
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return hosts
}

func TestRoutingBetweenInstances(t *testing.T) {
	gotA := make([]any, 3)
	gotB := make([]any, 3)
	runHosts(t, 3, func(i int, h *Host) {
		if err := h.Register("a", &FuncModule{
			OnStart: func(ctx *Ctx) {
				if ctx.Self() == 0 {
					ctx.Broadcast("from-a")
				}
			},
			OnHandle: func(ctx *Ctx, from async.PID, body any) { gotA[i] = body },
		}); err != nil {
			t.Fatal(err)
		}
		if err := h.Register("b", &FuncModule{
			OnStart: func(ctx *Ctx) {
				if ctx.Self() == 1 {
					ctx.Broadcast("from-b")
				}
			},
			OnHandle: func(ctx *Ctx, from async.PID, body any) { gotB[i] = body },
		}); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 3; i++ {
		if gotA[i] != "from-a" {
			t.Errorf("host %d instance a got %v", i, gotA[i])
		}
		if gotB[i] != "from-b" {
			t.Errorf("host %d instance b got %v", i, gotB[i])
		}
	}
}

func TestBufferingForUnregisteredInstance(t *testing.T) {
	// Party 0 sends to instance "late" that peers spawn only upon a
	// trigger on instance "trigger". Buffered messages must be replayed.
	received := make([]any, 2)
	runHosts(t, 2, func(i int, h *Host) {
		if err := h.Register("trigger", &FuncModule{
			OnStart: func(ctx *Ctx) {
				if ctx.Self() == 0 {
					// Send to "late" BEFORE the peer spawns it, then trigger.
					ctx.For("late").Send(1, "early-bird")
					ctx.Send(1, "go")
				}
			},
			OnHandle: func(ctx *Ctx, from async.PID, body any) {
				ctx.Spawn("late", &FuncModule{
					OnHandle: func(ctx *Ctx, from async.PID, body any) { received[i] = body },
				})
			},
		}); err != nil {
			t.Fatal(err)
		}
	})
	if received[1] != "early-bird" {
		t.Fatalf("buffered message not replayed: got %v", received[1])
	}
}

func TestSpawnIdempotent(t *testing.T) {
	runHosts(t, 1, func(i int, h *Host) {
		if err := h.Register("root", &FuncModule{
			OnStart: func(ctx *Ctx) {
				m1 := ctx.Spawn("child", &FuncModule{})
				m2 := ctx.Spawn("child", &FuncModule{})
				if m1 != m2 {
					t.Error("Spawn with same id should return existing module")
				}
				if _, ok := ctx.host.modules["child"]; !ok {
					t.Error("spawned child not registered")
				}
				if _, ok := ctx.host.modules["ghost"]; ok {
					t.Error("nonexistent module registered")
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDuplicateRegister(t *testing.T) {
	h := NewHost()
	if err := h.Register("x", &FuncModule{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("x", &FuncModule{}); err == nil {
		t.Fatal("duplicate Register should fail")
	}
}

// unknownCount reports how many message bodies no module has claimed:
// payloads that are not a non-nil *Envelope, and bodies still buffered
// for an instance that was never spawned.
func unknownCount(h *Host) int {
	n := h.unknown
	for _, pending := range h.buffer {
		n += len(pending)
	}
	return n
}

// TestNonEnvelopeCounted: unknownCount counts both bodies no module
// claims, a payload that is not a *Envelope and an envelope whose
// instance is never spawned.
func TestNonEnvelopeCounted(t *testing.T) {
	var hosts []*Host
	raw := &rawSender{}
	h := NewHost()
	hosts = append(hosts, h)
	procs := []async.Process{h, raw}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := unknownCount(hosts[0]); n != 2 {
		t.Fatalf("unknownCount = %d, want 2", n)
	}
}

type rawSender struct{}

// Start sends host 0 a payload that is not a *Envelope and an envelope
// for an instance host 0 never spawns: neither is ever claimed.
func (*rawSender) Start(env *async.Env) {
	env.Send(0, "not an envelope")
	env.Send(0, &Envelope{Instance: "never-spawned", Body: "orphan"})
	env.Halt()
}
func (*rawSender) Deliver(env *async.Env, m async.Message) {}

// TestDeliverAcceptsOnlyEnvelopePointer: an Envelope value and a nil
// *Envelope are not envelopes: they reach no module and count in
// unknownCount.
func TestDeliverAcceptsOnlyEnvelopePointer(t *testing.T) {
	handled := 0
	h := NewHost()
	if err := h.Register("m", &FuncModule{OnHandle: func(*Ctx, async.PID, any) { handled++ }}); err != nil {
		t.Fatal(err)
	}
	env := async.NewRemote(0, 2, 0, 1, func(async.PID, any) {}).Env()
	h.Start(env)
	for _, p := range []any{Envelope{Instance: "m", Body: 1}, (*Envelope)(nil), &Envelope{Instance: "m", Body: 2}} {
		h.Deliver(env, async.Message{From: 1, Payload: p})
	}
	if handled != 1 || unknownCount(h) != 2 {
		t.Fatalf("handled %d, unknownCount %d; want 1 and 2", handled, unknownCount(h))
	}
}

// TestSendsCarveEnvelopesFromSlab: point-to-point sends carry distinct
// envelopes, and a host allocates one slab per envSlab of them, not one
// envelope per send.
func TestSendsCarveEnvelopesFromSlab(t *testing.T) {
	var sent []*Envelope
	env := async.NewRemote(0, 2, 0, 1, func(_ async.PID, p any) { sent = append(sent, p.(*Envelope)) }).Env()
	h := NewHost()
	ctx := h.Ctx(env, "m")
	for i := 0; i < 3; i++ {
		ctx.Send(1, i)
	}
	if sent[0] == sent[1] || sent[1] == sent[2] || sent[2].Instance != "m" || sent[2].Body != 2 {
		t.Fatalf("sends carried %v %v %v", *sent[0], *sent[1], *sent[2])
	}
	env = async.NewRemote(0, 2, 0, 1, func(async.PID, any) {}).Env()
	ctx = h.Ctx(env, "m")
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < envSlab; i++ {
			ctx.Send(1, nil)
		}
	})
	if allocs > 1 {
		t.Fatalf("%d sends allocate %.1f times, want <= 1", envSlab, allocs)
	}
}
func TestOnStartHook(t *testing.T) {
	fired := false
	runHosts(t, 1, func(i int, h *Host) {
		h.OnStart(func(env *async.Env) { fired = true })
	})
	if !fired {
		t.Fatal("OnStart hook not invoked")
	}
}

func TestSelfDeliveryViaBroadcast(t *testing.T) {
	selfGot := false
	runHosts(t, 1, func(i int, h *Host) {
		if err := h.Register("x", &FuncModule{
			OnStart: func(ctx *Ctx) { ctx.Broadcast("hi") },
			OnHandle: func(ctx *Ctx, from async.PID, body any) {
				if from == ctx.Self() {
					selfGot = true
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
	})
	if !selfGot {
		t.Fatal("broadcast must include self")
	}
}

// TestCtxFollowsCallbackEnv: one Ctx serves every callback of an
// instance, rebound to each callback's Env, so a module sends through the
// Env of the delivery it is handling. The deliveries alternate between a
// plain Env and a HookedEnv that tags what passes through it.
func TestCtxFollowsCallbackEnv(t *testing.T) {
	var sent []any
	plain := async.NewRemote(0, 2, 0, 1, func(_ async.PID, p any) {
		sent = append(sent, p.(*Envelope).Body)
	}).Env()
	hooked := async.HookedEnv(plain, func(_ async.PID, p any) (any, bool) {
		e := *p.(*Envelope)
		e.Body = fmt.Sprint("hooked:", e.Body)
		return &e, true
	})
	var ctxs []*Ctx
	h := NewHost()
	if err := h.Register("m", &FuncModule{OnHandle: func(ctx *Ctx, _ async.PID, body any) {
		ctxs = append(ctxs, ctx)
		ctx.Send(1, body)
	}}); err != nil {
		t.Fatal(err)
	}
	h.Start(plain)
	for i, env := range []*async.Env{plain, hooked, plain, hooked} {
		h.Deliver(env, async.Message{From: 1, Payload: &Envelope{Instance: "m", Body: i}})
	}
	if want := []any{0, "hooked:1", 2, "hooked:3"}; !reflect.DeepEqual(sent, want) {
		t.Fatalf("sent %v, want %v", sent, want)
	}
	if ctxs[0] != ctxs[1] || ctxs[1] != ctxs[3] {
		t.Error("the host should hand an instance the same Ctx on every callback")
	}
}

// TestBroadcastOneEnvelope: a broadcast reaches every participant, self
// included, every send carrying the same *Envelope with the caller's
// instance and body.
func TestBroadcastOneEnvelope(t *testing.T) {
	const n = 4
	var to []async.PID
	var got []any
	env := async.NewRemote(2, n, 0, 1, func(p async.PID, payload any) {
		to = append(to, p)
		got = append(got, payload)
	}).Env()
	body := &struct{ v int }{7}
	h := NewHost()
	if err := h.Register("b", &FuncModule{OnStart: func(ctx *Ctx) { ctx.Broadcast(body) }}); err != nil {
		t.Fatal(err)
	}
	h.Start(env)
	if len(got) != n {
		t.Fatalf("broadcast made %d sends, want %d", len(got), n)
	}
	want := Envelope{Instance: "b", Body: body}
	for i := range got {
		if e, ok := got[i].(*Envelope); to[i] != async.PID(i) || !ok || *e != want || got[i] != got[0] {
			t.Errorf("send %d: %v to %d, want the shared %v to %d", i, got[i], to[i], want, i)
		}
	}
}

// TestForBeforeSpawn: For on an id no module holds yet returns a working
// Ctx; spawning through it registers the module, and sends made through
// that early Ctx reach the spawned module at every party.
func TestForBeforeSpawn(t *testing.T) {
	got := make([]any, 2)
	runHosts(t, 2, func(i int, h *Host) {
		if err := h.Register("root", &FuncModule{OnStart: func(ctx *Ctx) {
			early := ctx.For("child")
			early.Spawn("child", &FuncModule{OnHandle: func(_ *Ctx, _ async.PID, body any) { got[i] = body }})
			if _, ok := ctx.host.modules["child"]; !ok {
				t.Error("child not registered")
			}
			if ctx.Self() == 0 {
				early.Broadcast("hi")
			}
		}}); err != nil {
			t.Fatal(err)
		}
	})
	for i, b := range got {
		if b != "hi" {
			t.Errorf("party %d's child got %v, want hi", i, b)
		}
	}
}

// TestChildID: ids keep the "parent/kind/i/j" format the wire and the BA
// coin depend on, byte for byte.
func TestChildID(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{ChildID("ct", "core"), "ct/core"},
		{ChildID("ct", "in", 3), "ct/in/3"},
		{ChildID("ct", "mul", 12, 0), "ct/mul/12/0"},
		{ChildID("ct/mulcs/5", "ba", 7), "ct/mulcs/5/ba/7"},
		{ChildID("", "x", -1), "/x/-1"},
		{ChildID(fmt.Sprintf("%070d", 0), "rbmul", 1, 2), fmt.Sprintf("%070d/rbmul/1/2", 0)},
	} {
		if c.got != c.want {
			t.Errorf("ChildID = %q, want %q", c.got, c.want)
		}
	}
}

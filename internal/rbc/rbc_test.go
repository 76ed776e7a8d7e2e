package rbc

import (
	"bytes"
	"fmt"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/proto"
)

// harness builds n parties; parties in byz get the process returned by
// mkByz(i) instead of an honest RBC host.
func harness(t *testing.T, n, tFault int, dealer async.PID, value []byte,
	byz map[int]func(i int) async.Process, sched async.Scheduler, seed int64) [][]byte {
	t.Helper()
	delivered := make([][]byte, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		if byz != nil {
			if mk, ok := byz[i]; ok {
				procs[i] = mk(i)
				continue
			}
		}
		i := i
		h := proto.NewHost()
		var inst *RBC
		if async.PID(i) == dealer {
			inst = NewDealer(dealer, tFault, value, func(ctx *proto.Ctx, v []byte) { delivered[i] = v })
		} else {
			inst = New(dealer, tFault, func(ctx *proto.Ctx, v []byte) { delivered[i] = v })
		}
		if err := h.Register("rbc", inst); err != nil {
			t.Fatal(err)
		}
		procs[i] = h
	}
	if sched == nil {
		sched = &async.RoundRobinScheduler{}
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: sched, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return delivered
}

func TestHonestBroadcast(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		delivered := harness(t, cfg.n, cfg.t, 0, []byte("value"), nil, nil, 1)
		for i, v := range delivered {
			if !bytes.Equal(v, []byte("value")) {
				t.Fatalf("n=%d t=%d: party %d delivered %q", cfg.n, cfg.t, i, v)
			}
		}
	}
}

func TestHonestBroadcastRandomSchedulers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		delivered := harness(t, 7, 2, 3, []byte("xyz"), nil, async.NewRandomScheduler(seed), seed)
		for i, v := range delivered {
			if !bytes.Equal(v, []byte("xyz")) {
				t.Fatalf("seed %d: party %d delivered %q", seed, i, v)
			}
		}
	}
}

// equivocator is a Byzantine dealer that sends INIT "a" to the first half
// and INIT "b" to the second half, then echoes both.
type equivocator struct{ n, t int }

func (e *equivocator) Start(env *async.Env) {
	for p := 0; p < e.n; p++ {
		v := []byte("a")
		if p >= e.n/2 {
			v = []byte("b")
		}
		env.Send(async.PID(p), &proto.Envelope{Instance: "rbc", Body: MsgInit{V: v}})
	}
}
func (e *equivocator) Deliver(env *async.Env, m async.Message) {}

func TestAgreementUnderEquivocatingDealer(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n, tf := 7, 2
		byz := map[int]func(int) async.Process{
			0: func(i int) async.Process { return &equivocator{n: n, t: tf} },
		}
		delivered := harness(t, n, tf, 0, nil, byz, async.NewRandomScheduler(seed), seed)
		// Agreement: all honest parties that delivered got the same value.
		var got []byte
		for i := 1; i < n; i++ {
			if delivered[i] == nil {
				continue
			}
			if got == nil {
				got = delivered[i]
			} else if !bytes.Equal(got, delivered[i]) {
				t.Fatalf("seed %d: parties delivered both %q and %q", seed, got, delivered[i])
			}
		}
	}
}

// echoForger echoes a forged value but is not the dealer; honest parties
// must still deliver the dealer's value.
type echoForger struct{ n int }

func (f *echoForger) Start(env *async.Env) {
	for p := 0; p < f.n; p++ {
		env.Send(async.PID(p), &proto.Envelope{Instance: "rbc", Body: MsgEcho{V: []byte("forged")}})
		env.Send(async.PID(p), &proto.Envelope{Instance: "rbc", Body: MsgReady{V: []byte("forged")}})
	}
}
func (f *echoForger) Deliver(env *async.Env, m async.Message) {}

func TestForgedEchoesInsufficient(t *testing.T) {
	n, tf := 7, 2
	byz := map[int]func(int) async.Process{
		5: func(i int) async.Process { return &echoForger{n: n} },
		6: func(i int) async.Process { return &echoForger{n: n} },
	}
	delivered := harness(t, n, tf, 0, []byte("real"), byz, nil, 3)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(delivered[i], []byte("real")) {
			t.Fatalf("party %d delivered %q, want real", i, delivered[i])
		}
	}
}

// silent crashes immediately (sends nothing).
type silent struct{}

func (silent) Start(env *async.Env)                    {}
func (silent) Deliver(env *async.Env, m async.Message) {}

func TestToleratesCrashes(t *testing.T) {
	n, tf := 7, 2
	byz := map[int]func(int) async.Process{
		1: func(i int) async.Process { return silent{} },
		2: func(i int) async.Process { return silent{} },
	}
	delivered := harness(t, n, tf, 0, []byte("v"), byz, nil, 4)
	for i := 3; i < n; i++ {
		if !bytes.Equal(delivered[i], []byte("v")) {
			t.Fatalf("party %d did not deliver", i)
		}
	}
}

func TestCrashedDealerNoDelivery(t *testing.T) {
	n, tf := 4, 1
	byz := map[int]func(int) async.Process{
		0: func(i int) async.Process { return silent{} },
	}
	delivered := harness(t, n, tf, 0, nil, byz, nil, 5)
	for i := 1; i < n; i++ {
		if delivered[i] != nil {
			t.Fatalf("party %d delivered %q from a crashed dealer", i, delivered[i])
		}
	}
}

func TestDealerInputAfterStart(t *testing.T) {
	// The dealer's value arrives via Input (dynamic spawning pattern).
	n, tf := 4, 1
	delivered := make([][]byte, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		i := i
		h := proto.NewHost()
		inst := New(0, tf, func(ctx *proto.Ctx, v []byte) { delivered[i] = v })
		if err := h.Register("rbc", inst); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Trigger module: on start, feed the dealer input.
			if err := h.Register("trigger", &proto.FuncModule{
				OnStart: func(ctx *proto.Ctx) {
					inst.Input(ctx.For("rbc"), []byte("late-input"))
					inst.Input(ctx.For("rbc"), []byte("ignored-second-input"))
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(delivered[i], []byte("late-input")) {
			t.Fatalf("party %d delivered %q", i, delivered[i])
		}
	}
}

func TestManyParallelInstances(t *testing.T) {
	// n dealers each broadcast their own value concurrently under one host.
	n, tf := 4, 1
	delivered := make([]map[int][]byte, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		i := i
		delivered[i] = make(map[int][]byte)
		h := proto.NewHost()
		for d := 0; d < n; d++ {
			d := d
			id := fmt.Sprintf("rbc/%d", d)
			var inst *RBC
			cb := func(ctx *proto.Ctx, v []byte) { delivered[i][d] = v }
			if d == i {
				inst = NewDealer(async.PID(d), tf, []byte{byte('A' + d)}, cb)
			} else {
				inst = New(async.PID(d), tf, cb)
			}
			if err := h.Register(id, inst); err != nil {
				t.Fatal(err)
			}
		}
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: async.NewRandomScheduler(7), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for d := 0; d < n; d++ {
			want := []byte{byte('A' + d)}
			if !bytes.Equal(delivered[i][d], want) {
				t.Fatalf("party %d instance %d delivered %q, want %q", i, d, delivered[i][d], want)
			}
		}
	}
	if res.Stats.MessagesSent == 0 {
		t.Fatal("no messages counted")
	}
}

func TestMessageComplexityQuadratic(t *testing.T) {
	// One RBC costs O(n^2) messages: n INIT + n*n ECHO + n*n READY.
	counts := map[int]int{}
	for _, n := range []int{4, 7, 10} {
		tf := (n - 1) / 3
		procs := make([]async.Process, n)
		for i := 0; i < n; i++ {
			h := proto.NewHost()
			var inst *RBC
			if i == 0 {
				inst = NewDealer(0, tf, []byte("v"), nil)
			} else {
				inst = New(0, tf, nil)
			}
			if err := h.Register("rbc", inst); err != nil {
				t.Fatal(err)
			}
			procs[i] = h
		}
		rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		counts[n] = res.Stats.MessagesSent
	}
	// Shape check: quadratic growth, within loose constants.
	if !(counts[7] > counts[4] && counts[10] > counts[7]) {
		t.Fatalf("message counts not increasing: %v", counts)
	}
	if counts[10] > 3*10*10+10 {
		t.Fatalf("n=10 used %d messages; exceeds 3n^2+n", counts[10])
	}
}

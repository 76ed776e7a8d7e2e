package acs

import (
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/proto"
)

// silent is a party that never sends: a crashed or mute Byzantine party.
type silent struct{}

func (silent) Start(env *async.Env)                    {}
func (silent) Deliver(env *async.Env, m async.Message) {}

// runCoreSet builds n parties; readyAt[i] lists the candidates party i
// marks ready at start (nil = byzantine silent party).
func runCoreSet(t *testing.T, n, tf int, readyAt [][]int, sched async.Scheduler, seed int64) [][]int {
	t.Helper()
	outs := make([][]int, n)
	procs := make([]async.Process, n)
	coin := ba.SharedCoin{Seed: seed}
	for i := 0; i < n; i++ {
		if readyAt[i] == nil {
			procs[i] = silent{}
			continue
		}
		i := i
		h := proto.NewHost()
		cs := NewCoreSet(n, tf, coin, func(ctx *proto.Ctx, members []int) { outs[i] = members })
		if err := h.Register("cs", cs); err != nil {
			t.Fatal(err)
		}
		marks := readyAt[i]
		h.OnStart(func(env *async.Env) {
			for _, j := range marks {
				cs.MarkReady(h.Ctx(env, "cs"), j)
			}
		})
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
	return outs
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestCoreSetAllReady(t *testing.T) {
	n, tf := 4, 1
	ready := make([][]int, n)
	for i := range ready {
		ready[i] = allOf(n)
	}
	outs := runCoreSet(t, n, tf, ready, nil, 1)
	for i, out := range outs {
		if out == nil {
			t.Fatalf("party %d incomplete", i)
		}
		if len(out) < n-tf {
			t.Fatalf("party %d core too small: %v", i, out)
		}
		if !equalInts(out, outs[0]) {
			t.Fatalf("cores differ: %v vs %v", out, outs[0])
		}
	}
}

func TestCoreSetAgreementUnderPartialEvidence(t *testing.T) {
	// Parties hold different local evidence; the agreed core must still be
	// common and of size >= n-t.
	for seed := int64(0); seed < 8; seed++ {
		n, tf := 4, 1
		ready := [][]int{
			{0, 1, 2},
			{0, 1, 3},
			{1, 2, 3},
			{0, 2, 3},
		}
		outs := runCoreSet(t, n, tf, ready, async.NewRandomScheduler(seed), seed)
		var ref []int
		for i, out := range outs {
			if out == nil {
				t.Fatalf("seed %d: party %d incomplete", seed, i)
			}
			if ref == nil {
				ref = out
			} else if !equalInts(out, ref) {
				t.Fatalf("seed %d: cores differ: %v vs %v", seed, out, ref)
			}
			if len(out) < n-tf {
				t.Fatalf("seed %d: core too small: %v", seed, out)
			}
		}
	}
}

func TestCoreSetSilentParty(t *testing.T) {
	// One silent party; the others must still agree on a core of >= n-t.
	n, tf := 4, 1
	ready := [][]int{
		allOf(n),
		allOf(n),
		allOf(n),
		nil, // silent
	}
	outs := runCoreSet(t, n, tf, ready, nil, 3)
	var ref []int
	for i := 0; i < 3; i++ {
		if outs[i] == nil {
			t.Fatalf("party %d incomplete", i)
		}
		if ref == nil {
			ref = outs[i]
		} else if !equalInts(outs[i], ref) {
			t.Fatal("cores differ")
		}
	}
	if len(ref) < n-tf {
		t.Fatalf("core too small: %v", ref)
	}
}

func TestCoreSetValidity(t *testing.T) {
	// A candidate nobody marks ready can only enter the core if BA
	// validity is violated — it must not be.
	n, tf := 4, 1
	ready := [][]int{
		{0, 1, 2},
		{0, 1, 2},
		{0, 1, 2},
		{0, 1, 2},
	}
	outs := runCoreSet(t, n, tf, ready, nil, 4)
	for _, out := range outs {
		for _, m := range out {
			if m == 3 {
				t.Fatalf("candidate 3 in core despite no honest evidence: %v", out)
			}
		}
	}
}

func TestCoreSetMarkReadyOutOfRange(t *testing.T) {
	cs := NewCoreSet(4, 1, ba.SharedCoin{Seed: 1}, nil)
	// Must not panic before Start or on bad indices.
	cs.MarkReady(nil, -1)
	cs.MarkReady(nil, 99)
	if cs.completed {
		t.Fatal("should not be complete")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recorder keeps every message delivered to it and stays silent.
type recorder struct{ msgs []async.Message }

func (r *recorder) Start(env *async.Env)                    {}
func (r *recorder) Deliver(env *async.Env, m async.Message) { r.msgs = append(r.msgs, m) }

// TestCoreSetStartedBehindItsPeers: a party that spawns its core set only
// after the other n-t have finished finds every agreement's traffic
// buffered. Replaying it decides the first agreements inside Start, and
// the n-t-th decision proposes 0 to agreements Start has not spawned yet.
func TestCoreSetStartedBehindItsPeers(t *testing.T) {
	const n, tf, late = 4, 1, 3
	// What the three prompt parties send the late one while completing
	// without it.
	rec := &recorder{}
	procs := make([]async.Process, n)
	coin := ba.SharedCoin{Seed: 11}
	for i := 0; i < late; i++ {
		h := proto.NewHost()
		cs := NewCoreSet(n, tf, coin, nil)
		if err := h.Register("cs", cs); err != nil {
			t.Fatal(err)
		}
		h.OnStart(func(env *async.Env) {
			for j := 0; j < late; j++ {
				cs.MarkReady(h.Ctx(env, "cs"), j)
			}
		})
		procs[i] = h
	}
	procs[late] = rec
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	// The late party: its host buffers all of that, then the core set
	// starts.
	var members []int
	h := proto.NewHost()
	env := async.NewRemote(late, n, 0, 11, func(async.PID, any) {}).Env()
	h.Start(env)
	for _, m := range rec.msgs {
		h.Deliver(env, m)
	}
	cs := NewCoreSet(n, tf, coin, func(ctx *proto.Ctx, got []int) { members = got })
	h.Ctx(env, "cs").Spawn("cs", cs)
	if !equalInts(members, []int{0, 1, 2}) {
		t.Fatalf("late party's core set %v, want [0 1 2]", members)
	}
}

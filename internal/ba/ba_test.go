package ba

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/proto"
)

// result of one harness run.
type baResult struct {
	decisions []int // -1 = undecided
	msgs      int
}

// runBA builds n parties with the given proposals; byz parties (by index)
// are replaced by custom processes. Honest party i proposes proposals[i].
func runBA(t *testing.T, n, tf int, proposals []int, coin func(i int) Coin,
	byz map[int]async.Process, sched async.Scheduler, seed int64) baResult {
	t.Helper()
	return runBAWrapped(t, n, tf, proposals, coin, byz, sched, seed, nil)
}

// runBAWrapped is runBA with each honest party's instance registered as
// wrap(instance), when wrap is not nil.
func runBAWrapped(t *testing.T, n, tf int, proposals []int, coin func(i int) Coin,
	byz map[int]async.Process, sched async.Scheduler, seed int64, wrap func(*BA) proto.Module) baResult {
	t.Helper()
	decisions := make([]int, n)
	for i := range decisions {
		decisions[i] = -1
	}
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		if p, ok := byz[i]; ok {
			procs[i] = p
			continue
		}
		i := i
		h := proto.NewHost()
		inst := New(n, tf, coin(i), func(ctx *proto.Ctx, v int) { decisions[i] = v })
		var m proto.Module = inst
		if wrap != nil {
			m = wrap(inst)
		}
		if err := h.Register("ba", m); err != nil {
			t.Fatal(err)
		}
		v := proposals[i]
		h.OnStart(func(env *async.Env) {
			inst.Propose(h.Ctx(env, "ba"), v)
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
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return baResult{decisions: decisions, msgs: res.Stats.MessagesSent}
}

func sharedCoins(seed int64) func(int) Coin {
	return func(int) Coin { return SharedCoin{Seed: seed} }
}

func TestUnanimousProposalDecided(t *testing.T) {
	for _, v := range []int{0, 1} {
		for _, cfg := range []struct{ n, t int }{{4, 1}, {7, 2}} {
			props := make([]int, cfg.n)
			for i := range props {
				props[i] = v
			}
			res := runBA(t, cfg.n, cfg.t, props, sharedCoins(1), nil, nil, 1)
			for i, d := range res.decisions {
				if d != v {
					t.Fatalf("n=%d v=%d: party %d decided %d", cfg.n, v, i, d)
				}
			}
		}
	}
}

func TestMixedProposalsAgree(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n, tf := 7, 2
		props := make([]int, n)
		rng := rand.New(rand.NewSource(seed))
		for i := range props {
			props[i] = rng.Intn(2)
		}
		res := runBA(t, n, tf, props, sharedCoins(seed), nil, async.NewRandomScheduler(seed), seed)
		first := res.decisions[0]
		if first < 0 {
			t.Fatalf("seed %d: party 0 undecided", seed)
		}
		for _, d := range res.decisions {
			if d != first {
				t.Fatalf("seed %d: disagreement %v", seed, res.decisions)
			}
		}
		// Validity: decision was someone's proposal.
		found := false
		for _, p := range props {
			if p == first {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: decided %d proposed by nobody", seed, first)
		}
	}
}

// byzFlood sends conflicting ESTs and AUXs for many rounds.
type byzFlood struct{ n int }

func (f *byzFlood) Start(env *async.Env) {
	for r := 1; r <= 3; r++ {
		for p := 0; p < f.n; p++ {
			for v := 0; v <= 1; v++ {
				env.Send(async.PID(p), &proto.Envelope{Instance: "ba", Body: MsgEst{Round: r, V: v}})
				env.Send(async.PID(p), &proto.Envelope{Instance: "ba", Body: MsgAux{Round: r, V: v}})
			}
		}
	}
}
func (f *byzFlood) Deliver(env *async.Env, m async.Message) {}

func TestByzantineFloodStillAgrees(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n, tf := 7, 2
		props := []int{1, 1, 0, 0, 1, 0, 0} // honest indices 0..4 used
		byz := map[int]async.Process{
			5: &byzFlood{n: n},
			6: &byzFlood{n: n},
		}
		res := runBA(t, n, tf, props, sharedCoins(seed), byz, async.NewRandomScheduler(seed), seed)
		first := -1
		for i := 0; i < 5; i++ {
			d := res.decisions[i]
			if d < 0 {
				t.Fatalf("seed %d: honest party %d undecided", seed, i)
			}
			if first < 0 {
				first = d
			} else if d != first {
				t.Fatalf("seed %d: honest disagreement %v", seed, res.decisions[:5])
			}
		}
	}
}

// byzSilent crashes.
type byzSilent struct{}

func (byzSilent) Start(env *async.Env)                    {}
func (byzSilent) Deliver(env *async.Env, m async.Message) {}

func TestToleratesCrashes(t *testing.T) {
	n, tf := 7, 2
	props := []int{1, 1, 1, 0, 0, 0, 0}
	byz := map[int]async.Process{
		3: byzSilent{},
		6: byzSilent{},
	}
	res := runBA(t, n, tf, props, sharedCoins(3), byz, nil, 3)
	first := -1
	for _, i := range []int{0, 1, 2, 4, 5} {
		d := res.decisions[i]
		if d < 0 {
			t.Fatalf("honest party %d undecided", i)
		}
		if first < 0 {
			first = d
		} else if d != first {
			t.Fatal("honest disagreement")
		}
	}
}

func TestValidityUnanimousDespiteByzantine(t *testing.T) {
	// All honest propose 1; Byzantine parties cannot force 0.
	for seed := int64(0); seed < 10; seed++ {
		n, tf := 7, 2
		props := []int{1, 1, 1, 1, 1, 1, 1}
		byz := map[int]async.Process{
			5: &byzFlood{n: n},
			6: &byzFlood{n: n},
		}
		res := runBA(t, n, tf, props, sharedCoins(seed), byz, async.NewRandomScheduler(seed+100), seed)
		for i := 0; i < 5; i++ {
			if res.decisions[i] != 1 {
				t.Fatalf("seed %d: party %d decided %d despite unanimous honest 1", seed, i, res.decisions[i])
			}
		}
	}
}

func TestLocalCoinTerminates(t *testing.T) {
	// Ben-Or-style local coins still terminate at small n.
	n, tf := 4, 1
	props := []int{1, 0, 1, 0}
	coins := func(i int) Coin {
		return &LocalCoin{Rng: rand.New(rand.NewSource(int64(i) + 77))}
	}
	res := runBA(t, n, tf, props, coins, nil, async.NewRandomScheduler(5), 5)
	first := res.decisions[0]
	if first < 0 {
		t.Fatal("undecided with local coins")
	}
	for _, d := range res.decisions {
		if d != first {
			t.Fatalf("disagreement %v", res.decisions)
		}
	}
}

func TestSharedCoinDeterministic(t *testing.T) {
	c1 := SharedCoin{Seed: 9}
	c2 := SharedCoin{Seed: 9}
	for r := 1; r < 20; r++ {
		if c1.Bit("x", r) != c2.Bit("x", r) {
			t.Fatal("same-seed coins disagree")
		}
	}
	// Different instances/rounds vary.
	varies := false
	for r := 1; r < 20; r++ {
		if c1.Bit("x", r) != c1.Bit("y", r) {
			varies = true
		}
	}
	if !varies {
		t.Fatal("coin does not depend on instance")
	}
}

func TestProposeValidation(t *testing.T) {
	b := New(4, 1, SharedCoin{Seed: 1}, nil)
	// Invalid values are ignored without a context dereference.
	b.Propose(nil, -1)
	b.Propose(nil, 2)
	if b.proposed {
		t.Fatal("invalid proposals must not register")
	}
}

// TestSharedCoinIsFNV1a pins the coin's inline hash to hash/fnv's FNV-1a
// 64 over the seed's and the round's little-endian bytes and then the
// instance id: every seeded run's coins, and so the determinism digests,
// rest on it.
func TestSharedCoinIsFNV1a(t *testing.T) {
	ref := func(seed int64, instance string, round int) uint64 {
		h := fnv.New64a()
		var buf [16]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(seed >> (8 * i))
			buf[8+i] = byte(round >> (8 * i))
		}
		_, _ = h.Write(buf[:])
		_, _ = h.Write([]byte(instance))
		return h.Sum64()
	}
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64, math.MinInt64} {
		for _, inst := range []string{"", "ba", "ct/core/ba/3", "ct/mulcs/12/ba/7", "\x00\xff"} {
			for _, round := range []int{0, 1, 2, 31, maxRounds, -1, 1 << 30} {
				want := ref(seed, inst, round)
				if got := coinHash(seed, inst, round); got != want {
					t.Errorf("coinHash(%d, %q, %d) = %#x, want %#x", seed, inst, round, got, want)
				}
				if got := (SharedCoin{Seed: seed}).Bit(inst, round); got != int(want&1) {
					t.Errorf("Bit(%d, %q, %d) = %d, want %d", seed, inst, round, got, want&1)
				}
			}
		}
	}
}

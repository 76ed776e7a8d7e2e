package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"asyncmediator/internal/adversary"
	"asyncmediator/internal/async"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

// goldenDigests pins seeded runs bit for bit: each value is the SHA-256 of
// a run's full step trace (step, player, start flag, delivered and sent
// message patterns), its resolved profile and its Stats. A change to the
// async runtime or a scheduler that alters which message an RNG draw
// picks, or any counter, changes a digest; so does a change to what a
// party's keyed stream yields, since values decide the outcome.
var goldenDigests = map[string]string{
	"n5-Theorem4.1/delay/seed1":      "6f21b6cf871341a1c9eb4a8418f950d8b6b579ddf58ee1b47df2ce27353bae7e",
	"n5-Theorem4.1/delay/seed2":      "57367a0d1126e575c001dd8a8f1c7d5c2d64e206635375f37e0ac61ac3164a4e",
	"n5-Theorem4.1/delay/seed3":      "d27126c899154c31bb04bfbc554158f7427b014b8dbea114e7b242f1c7d3b538",
	"n5-Theorem4.1/delay/seed4":      "3f38db7de4f3ef56532c3893d749f8486c82933f46429ccbf8046f10e60da716",
	"n5-Theorem4.1/fifo/seed1":       "36091f5769a13b546f51a7eb2c100738c2bfa0a7516d299aaa0b1a3914d02f25",
	"n5-Theorem4.1/fifo/seed2":       "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/fifo/seed3":       "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/fifo/seed4":       "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/random/seed1":     "e7a7a69c0eb0f06536cf1a1bf1a4de590094a4296a14e5e4b28d24965cb5b235",
	"n5-Theorem4.1/random/seed2":     "8c2738f16eb9e0f222826a3d4fbc702cefeeb5696add9dded51ac58d554195f7",
	"n5-Theorem4.1/random/seed3":     "d8bca4d76c864f7bbeabc7a9deb0f1becacb7db7ec1bf859bbf02863e346f43f",
	"n5-Theorem4.1/random/seed4":     "e04964b368fa8e819e3f12fbfba896dd3d4b7a34103e107178284babcd6d6c8e",
	"n5-Theorem4.1/roundrobin/seed1": "36091f5769a13b546f51a7eb2c100738c2bfa0a7516d299aaa0b1a3914d02f25",
	"n5-Theorem4.1/roundrobin/seed2": "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/roundrobin/seed3": "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/roundrobin/seed4": "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n8-Theorem4.4/delay/seed1":      "66c7e8f4d81014b7c6d6dc46aed0224b30dc6524fbc22d121b5576c9a0bf0349",
	"n8-Theorem4.4/delay/seed2":      "179ca632a7b22d2b466976bb37625910d15494da1085cbae0548e74dfd2f90e0",
	"n8-Theorem4.4/delay/seed3":      "7bb3346a420523935dd742d6bc2348bfe328bbc3277979228619f0733260c6d6",
	"n8-Theorem4.4/delay/seed4":      "e4b74ba6fc72400914eea5a339a36e3d11ac50232925b26d2e6de025d1747316",
	"n8-Theorem4.4/fifo/seed1":       "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"n8-Theorem4.4/fifo/seed2":       "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"n8-Theorem4.4/fifo/seed3":       "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"n8-Theorem4.4/fifo/seed4":       "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"n8-Theorem4.4/random/seed1":     "0fd0897460a4bd6054c103bae51438ed30b42ce1ad7d3bb6291798d411ff4756",
	"n8-Theorem4.4/random/seed2":     "dd1002b88a1b8a994fe5bfca8f1008d88acdc8285b904a0a03e676fdba72fe6f",
	"n8-Theorem4.4/random/seed3":     "cdbc8451e9dbe518a5a04c01afeec531391a29c8bea92743ee241cad4e795bb3",
	"n8-Theorem4.4/random/seed4":     "c1d93e5e14ef944251e96f0152592ff23a9d2be330e3cad28dfb54c93b009617",
	"n8-Theorem4.4/roundrobin/seed1": "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"n8-Theorem4.4/roundrobin/seed2": "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"n8-Theorem4.4/roundrobin/seed3": "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"n8-Theorem4.4/roundrobin/seed4": "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"relaxed-bait/seed10":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-bait/seed11":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-bait/seed12":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-bait/seed13":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-drop/seed1":             "abcdbe5a6f8dcb9513c198bc192fa1edd833d1500980e4be2617ea7ddbf96b31",
	"relaxed-drop/seed2":             "4f73a1a4c2974fe0e0df590880164a4f6910596a171485ea7cfe89a414377bd7",
	"relaxed-drop/seed3":             "3f75c2026c9924c2c0b193a6652e4734e856244ec615f57c199486f8a6dadae2",
	"relaxed-drop/seed4":             "47d0ae473773935766b1f0abdd6704fc77a32db79a1c36bf060e98636efc779b",
}

// detRun plays one case with the given trace hook.
type detRun func(trace func(async.TraceEntry)) (game.Profile, *async.Result, error)

func determinismCases(t *testing.T) map[string]detRun {
	t.Helper()
	cases := map[string]detRun{}
	scheds := map[string]func(seed int64) async.Scheduler{
		"roundrobin": func(int64) async.Scheduler { return &async.RoundRobinScheduler{} },
		"random":     func(seed int64) async.Scheduler { return async.NewRandomScheduler(seed) },
		"fifo":       func(int64) async.Scheduler { return &async.FIFOScheduler{} },
		"delay": func(seed int64) async.Scheduler {
			return &async.DelayScheduler{Base: async.NewRandomScheduler(seed), Slow: map[async.PID]bool{1: true}}
		},
	}
	plays := []struct {
		n, k, tf int
		v        Variant
	}{{5, 0, 1, Exact41}, {8, 1, 1, Punish44}}
	for _, pl := range plays {
		p, err := Section64Params(pl.n, pl.k, pl.tf, pl.v)
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range scheds {
			for seed := int64(1); seed <= 4; seed++ {
				mk, seed := mk, seed
				key := fmt.Sprintf("n%d-%v/%s/seed%d", pl.n, pl.v, name, seed)
				cases[key] = func(trace func(async.TraceEntry)) (game.Profile, *async.Result, error) {
					return Run(RunConfig{
						Params: p, Types: make([]game.Type, pl.n), Seed: seed,
						Scheduler: mk(seed), Trace: trace,
					})
				}
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		cases[fmt.Sprintf("relaxed-drop/seed%d", seed)] = func(trace func(async.TraceEntry)) (game.Profile, *async.Result, error) {
			return dropRun(t, seed, trace)
		}
	}
	// At bait seeds 11-13 the coalition drops the STOP batch; at 10 it
	// does not.
	for seed := int64(10); seed <= 13; seed++ {
		seed := seed
		cases[fmt.Sprintf("relaxed-bait/seed%d", seed)] = func(trace func(async.TraceEntry)) (game.Profile, *async.Result, error) {
			return baitRun(t, seed, trace)
		}
	}
	return cases
}

// dropRun is the n=5 Theorem 4.1 cheap talk under a relaxed random
// scheduler that drops every batch player 4 sends from its 20th
// activation on — drops interleaved with ordinary deliveries.
func dropRun(t *testing.T, seed int64, trace func(async.TraceEntry)) (game.Profile, *async.Result, error) {
	t.Helper()
	const n = 5
	p, err := Section64Params(n, 0, 1, Exact41)
	if err != nil {
		t.Fatal(err)
	}
	types := make([]game.Type, n)
	procs, err := BuildProcs(RunConfig{Params: p, Types: types})
	if err != nil {
		t.Fatal(err)
	}
	sched := &async.DropScheduler{
		Base:       async.NewRandomScheduler(seed),
		ShouldDrop: func(m async.MsgMeta) bool { return m.From == 4 && m.Batch >= 20 },
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: sched, Seed: seed, Relaxed: true, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		return nil, nil, err
	}
	return mediator.ResolveMoves(p.Game, types, res, p.Approach), res, nil
}

// baitRun is the E6 attack (sim.runSection64 with the leaky mediator):
// two HintPoolers and a colluding adversary.BaitScheduler at n=4, k=1.
func baitRun(t *testing.T, seed int64, trace func(async.TraceEntry)) (game.Profile, *async.Result, error) {
	t.Helper()
	const n = 4
	g, err := game.Section64Game(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	board := adversary.NewBoard()
	procs := make([]async.Process, n+1)
	for i := 0; i < n; i++ {
		if i <= 1 {
			procs[i] = &adversary.HintPooler{Mediator: n, Index: i, Board: board, G: g, Will: game.Bottom}
			continue
		}
		w := game.Bottom
		procs[i] = &mediator.HonestPlayer{Mediator: n, Type: 0, G: g, Will: &w}
	}
	procs[n] = mediator.NewLeaky(n)
	sched := &adversary.BaitScheduler{Base: &async.RoundRobinScheduler{}, Mediator: n, Board: board}
	rt, err := async.New(async.Config{Procs: procs, Players: n, Scheduler: sched, Seed: seed, Relaxed: true, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		return nil, nil, err
	}
	return mediator.ResolveMoves(g, make([]game.Type, n), res, game.ApproachAH), res, nil
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func putMetas(h hash.Hash, ms []async.MsgMeta) {
	putInt(h, int64(len(ms)))
	for _, m := range ms {
		for _, v := range []int64{int64(m.ID), int64(m.From), int64(m.To), int64(m.Seq), int64(m.Batch)} {
			putInt(h, v)
		}
	}
}

// putOutcome hashes what a run resolved to: the profile, the deadlock
// flag and every Stats counter (PerSender in PID order).
func putOutcome(h hash.Hash, prof game.Profile, res *async.Result) {
	putInt(h, int64(len(prof)))
	for _, a := range prof {
		putInt(h, int64(a))
	}
	s := res.Stats
	deadlocked := int64(0)
	if res.Deadlocked {
		deadlocked = 1
	}
	for _, v := range []int64{deadlocked, int64(s.Steps), int64(s.MessagesSent), int64(s.MessagesDelivered), int64(s.MessagesDropped)} {
		putInt(h, v)
	}
	pids := make([]int, 0, len(s.PerSender))
	for p := range s.PerSender {
		pids = append(pids, int(p))
	}
	sort.Ints(pids)
	for _, p := range pids {
		putInt(h, int64(p))
		putInt(h, int64(s.PerSender[async.PID(p)]))
	}
}

// digest plays run with a trace and returns the SHA-256 of the trace and
// the outcome, with the outcome itself.
func digest(run detRun) (string, game.Profile, *async.Result, error) {
	h := sha256.New()
	prof, res, err := run(func(e async.TraceEntry) {
		putInt(h, int64(e.Step))
		putInt(h, int64(e.Player))
		if e.Started {
			putInt(h, 1)
		} else {
			putInt(h, 0)
		}
		putMetas(h, e.Delivered)
		putMetas(h, e.Sent)
	})
	if err != nil {
		return "", nil, nil, err
	}
	putOutcome(h, prof, res)
	return hex.EncodeToString(h.Sum(nil)), prof, res, nil
}

// TestSeededRunsBitIdentical replays every case with a trace, hashes the
// trace and outcome, and compares against goldenDigests. It also replays
// each case without a trace: tracing must not change the outcome.
func TestSeededRunsBitIdentical(t *testing.T) {
	cases := determinismCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	var mismatched []string
	for _, name := range names {
		run := cases[name]
		got, prof, res, err := digest(run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		bare, resBare, err := run(nil)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		hTraced, hBare := sha256.New(), sha256.New()
		putOutcome(hTraced, prof, res)
		putOutcome(hBare, bare, resBare)
		if string(hTraced.Sum(nil)) != string(hBare.Sum(nil)) {
			t.Errorf("%s: outcome differs with and without a trace", name)
		}

		if want, ok := goldenDigests[name]; !ok || got != want {
			t.Errorf("%s: digest %s, want %q", name, got, want)
			mismatched = append(mismatched, fmt.Sprintf("\t%q: %q,", name, got))
		}
	}
	if len(mismatched) > 0 {
		t.Logf("digests of this build:\n%s", strings.Join(mismatched, "\n"))
	}
}

// TestSeededMessageCounts pins the steps and messages of roundrobin plays
// at two benchmark shapes: the sim-n5 play (n=5, Theorem 4.1) and the
// lib-n8 play (n=8, k=1, t=1, Theorem 4.4) under roundrobin instead of
// random. Under a fixed schedule the message pattern depends on no
// party's random values, so a change of generator or of what a party
// draws leaves these counts as they are; a change to what the protocol
// sends moves them.
func TestSeededMessageCounts(t *testing.T) {
	shapes := []struct {
		n, k, tf    int
		v           Variant
		steps, msgs int
	}{
		{5, 0, 1, Exact41, 970, 975},
		{8, 1, 1, Punish44, 3752, 3776},
	}
	for _, s := range shapes {
		p, err := Section64Params(s.n, s.k, s.tf, s.v)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			_, res, err := Run(RunConfig{
				Params: p, Types: make([]game.Type, s.n), Seed: seed,
				Scheduler: &async.RoundRobinScheduler{},
			})
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", s.n, seed, err)
			}
			if res.Stats.Steps != s.steps || res.Stats.MessagesSent != s.msgs {
				t.Errorf("n=%d %v seed %d: %d steps, %d messages; want %d, %d",
					s.n, s.v, seed, res.Stats.Steps, res.Stats.MessagesSent, s.steps, s.msgs)
			}
		}
	}
}

// TestSeedsDoNotAlias: seeds s and s+(2^31-1) key different streams, so
// they give every party different draws and play differently, for s = 1
// and s = 7 (a generator that reduces its seed modulo 2^31-1 plays them
// identically). Within one play, no two parties draw alike.
func TestSeedsDoNotAlias(t *testing.T) {
	const n = 5
	p, err := Section64Params(n, 0, 1, Exact41)
	if err != nil {
		t.Fatal(err)
	}
	// draws is party q's first four draws in the play seeded with seed.
	draws := func(seed int64, q int) [4]uint64 {
		var d [4]uint64
		r := async.NewRemote(async.PID(q), n, n, seed, nil).Env().Rand()
		for i := range d {
			d[i] = r.Uint64()
		}
		return d
	}
	play := func(seed int64) string {
		got, _, _, err := digest(func(trace func(async.TraceEntry)) (game.Profile, *async.Result, error) {
			return Run(RunConfig{
				Params: p, Types: make([]game.Type, n), Seed: seed,
				Scheduler: async.NewRandomScheduler(seed), Trace: trace,
			})
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return got
	}
	for _, s := range []int64{1, 7} {
		alias := s + (1<<31 - 1)
		for q := 0; q < n; q++ {
			if draws(s, q) == draws(alias, q) {
				t.Errorf("party %d draws alike at seeds %d and %d", q, s, alias)
			}
			if q > 0 && draws(s, q) == draws(s, 0) {
				t.Errorf("seed %d: parties 0 and %d draw alike", s, q)
			}
		}
		if play(s) == play(alias) {
			t.Errorf("seeds %d and %d play identically", s, alias)
		}
	}
}

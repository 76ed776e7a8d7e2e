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
// picks, or any counter, changes a digest.
var goldenDigests = map[string]string{
	"n5-Theorem4.1/delay/seed1":      "610c9ba00d8286dc0be887c4a0c05a7ba4e1cd44434c8a7d1996cf9174fceecf",
	"n5-Theorem4.1/delay/seed2":      "11fb65fc805713824e74d9b003a77497f9906d8b71271c834ec60b669f190d0e",
	"n5-Theorem4.1/delay/seed3":      "e26c1ae58f40a7688fb74958e3509261ac659bdd9df0aaa3d7766ad0d2a36066",
	"n5-Theorem4.1/delay/seed4":      "a632c64133f991ba065cc47512768d30805adc4973be085698e75930d17e0eaf",
	"n5-Theorem4.1/fifo/seed1":       "9999ea0807a95ee4b341b1691b12111616b0be8e4e9db95b2a093af3db84dfb9",
	"n5-Theorem4.1/fifo/seed2":       "0201a881b420c23db1066cf78e6f36a95977115507a50aa8970a597b0f66dfbe",
	"n5-Theorem4.1/fifo/seed3":       "0201a881b420c23db1066cf78e6f36a95977115507a50aa8970a597b0f66dfbe",
	"n5-Theorem4.1/fifo/seed4":       "9999ea0807a95ee4b341b1691b12111616b0be8e4e9db95b2a093af3db84dfb9",
	"n5-Theorem4.1/random/seed1":     "64ae88e2b2b52db5823b74d955e1d2c1a32e10a4484c9881f64fec4056c8dbef",
	"n5-Theorem4.1/random/seed2":     "ed0d9b7465944deba20818be62997bcf5f524a4ae61fb4b347d4ebea1b283046",
	"n5-Theorem4.1/random/seed3":     "c283c6d787865d97d2d1db821f917b7dddd6143bd6f90fc965de3a9564894c6d",
	"n5-Theorem4.1/random/seed4":     "18e5749a4bdab216d445f5e36b44e22a5721d2bf90af033bf20d2257e5913e3d",
	"n5-Theorem4.1/roundrobin/seed1": "9999ea0807a95ee4b341b1691b12111616b0be8e4e9db95b2a093af3db84dfb9",
	"n5-Theorem4.1/roundrobin/seed2": "0201a881b420c23db1066cf78e6f36a95977115507a50aa8970a597b0f66dfbe",
	"n5-Theorem4.1/roundrobin/seed3": "0201a881b420c23db1066cf78e6f36a95977115507a50aa8970a597b0f66dfbe",
	"n5-Theorem4.1/roundrobin/seed4": "9999ea0807a95ee4b341b1691b12111616b0be8e4e9db95b2a093af3db84dfb9",
	"n8-Theorem4.4/delay/seed1":      "500a804e09fbda27ad00a554b061592aba33f93a6c0f6ce7e31500a2379fc941",
	"n8-Theorem4.4/delay/seed2":      "62f8e13030db99a310de3003702c055092075cc334880c70490a8fed080ebbb9",
	"n8-Theorem4.4/delay/seed3":      "496c6d4786f192dd79325093fc2d4db14faef7cc8c80808a1afeaa9885b85470",
	"n8-Theorem4.4/delay/seed4":      "f4775772f697372666a4f81fffacf87b5df52b7e78852521f2e313e776f054bf",
	"n8-Theorem4.4/fifo/seed1":       "5b28ae2f0de23dc8f1f97b2025b029184f9802ad79257bf734fb553cdee2ccfb",
	"n8-Theorem4.4/fifo/seed2":       "5b28ae2f0de23dc8f1f97b2025b029184f9802ad79257bf734fb553cdee2ccfb",
	"n8-Theorem4.4/fifo/seed3":       "928d3b886c2a76c008bd1a2b2f84f698a93a566f8e789cd9b9668633cdacd3fe",
	"n8-Theorem4.4/fifo/seed4":       "5b28ae2f0de23dc8f1f97b2025b029184f9802ad79257bf734fb553cdee2ccfb",
	"n8-Theorem4.4/random/seed1":     "7ded83bb598606a48bc7c8aeb9ab6412e238e4a9551a24311b1ff9ee0f53f3b5",
	"n8-Theorem4.4/random/seed2":     "1312db8db495072eb31f6fb5b1a0f9a16ac7be7deaf8144db86af9fbef51c0e9",
	"n8-Theorem4.4/random/seed3":     "1f15e27911df8a3530801d8e4a2fd2ca44bb7066c7e297ac4bedc1174dd3da74",
	"n8-Theorem4.4/random/seed4":     "02caacccf7fc7a329a2d60117a23bbabd0baf8ad5be3f3de5bde4cc3fa9a9555",
	"n8-Theorem4.4/roundrobin/seed1": "5b28ae2f0de23dc8f1f97b2025b029184f9802ad79257bf734fb553cdee2ccfb",
	"n8-Theorem4.4/roundrobin/seed2": "5b28ae2f0de23dc8f1f97b2025b029184f9802ad79257bf734fb553cdee2ccfb",
	"n8-Theorem4.4/roundrobin/seed3": "928d3b886c2a76c008bd1a2b2f84f698a93a566f8e789cd9b9668633cdacd3fe",
	"n8-Theorem4.4/roundrobin/seed4": "5b28ae2f0de23dc8f1f97b2025b029184f9802ad79257bf734fb553cdee2ccfb",
	"relaxed-bait/seed10":            "4cb81a26c577c07bbc1aec67389a2e5c3756150c85e28901e3a3b0a6173f9a9f",
	"relaxed-bait/seed11":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-bait/seed12":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-bait/seed13":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-drop/seed1":             "1ca286189a4c773934221e238bca8129d48efb8ccc484428e82c5ca5bb41426e",
	"relaxed-drop/seed2":             "c50b67c25cd8e4dbf7b77c4962b5e0724fccde48454690d1e7cc5d9e517c1dad",
	"relaxed-drop/seed3":             "29ff4855906772ba4f1a644054e38f77df79e9e3eafcb45cf30f3f5cddf7624a",
	"relaxed-drop/seed4":             "1fb5c7c6a30658fc4f27fe97a4023abd8dae0b2238752d5cccf3c4f625ac6d37",
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
			t.Fatalf("%s: %v", name, err)
		}
		putOutcome(h, prof, res)
		got := hex.EncodeToString(h.Sum(nil))

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

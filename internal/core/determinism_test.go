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
	"n5-Theorem4.1/delay/seed1":      "70f2261984485617b141f79ea31d770d38bcf1173c7d4e3a8a545aa4d46a0973",
	"n5-Theorem4.1/delay/seed2":      "de1fc1812ce466c0ae519bdfb692b9b3ba60c559c9da970c207f2f789bead326",
	"n5-Theorem4.1/delay/seed3":      "4c7e07620be9ad08365b0d32159a5ac0d33a0408a9474737606cdbf2cf27bc91",
	"n5-Theorem4.1/delay/seed4":      "01a75a3891d6b97ca7c650abfd646af0fc6da1a03be5e3f2102131032ec3ad05",
	"n5-Theorem4.1/fifo/seed1":       "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/fifo/seed2":       "36091f5769a13b546f51a7eb2c100738c2bfa0a7516d299aaa0b1a3914d02f25",
	"n5-Theorem4.1/fifo/seed3":       "36091f5769a13b546f51a7eb2c100738c2bfa0a7516d299aaa0b1a3914d02f25",
	"n5-Theorem4.1/fifo/seed4":       "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/random/seed1":     "304565fe500b5ce350c8d1f3fbde5c1058b13c1331de25deb0568795394c36f9",
	"n5-Theorem4.1/random/seed2":     "355a04c4394ff630c585f1f1cf15ec189396e66d15845e6a306d7f60b2f64570",
	"n5-Theorem4.1/random/seed3":     "d265c9be6b398f6695b00fc49cafa2c8d02bc827edd825b3d791463b3cd74ca9",
	"n5-Theorem4.1/random/seed4":     "e7553fde1a54f1da8d66816184959b5ba3c002d7736d21b13f377c29505243b0",
	"n5-Theorem4.1/roundrobin/seed1": "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n5-Theorem4.1/roundrobin/seed2": "36091f5769a13b546f51a7eb2c100738c2bfa0a7516d299aaa0b1a3914d02f25",
	"n5-Theorem4.1/roundrobin/seed3": "36091f5769a13b546f51a7eb2c100738c2bfa0a7516d299aaa0b1a3914d02f25",
	"n5-Theorem4.1/roundrobin/seed4": "8efc3a861f01732614aec492ba27a9cba81a8e589a51431d2eb8e295dbf2fa1b",
	"n8-Theorem4.4/delay/seed1":      "650929d497ce13b0d5b4696f35ee87f05d3341349d77bf17b65cd61fe1638341",
	"n8-Theorem4.4/delay/seed2":      "fdfa16ae49c47a45dbd66c86cef589ec2f631c01a05159d0e3d0ff826983b386",
	"n8-Theorem4.4/delay/seed3":      "aaf752a099db2a0944a486df6f58393baac6113f504dacd04734d50cb8351d76",
	"n8-Theorem4.4/delay/seed4":      "fa33158c27db0d31c58a07a0be023f18b3e9a6fd4a53084743699419c2fbee70",
	"n8-Theorem4.4/fifo/seed1":       "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"n8-Theorem4.4/fifo/seed2":       "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"n8-Theorem4.4/fifo/seed3":       "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"n8-Theorem4.4/fifo/seed4":       "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"n8-Theorem4.4/random/seed1":     "b9e6213aa4d1d7666fcec178d4da7fc83ceb89aad0e7eb9e48e141453edcde3e",
	"n8-Theorem4.4/random/seed2":     "2f0cbf45b276387be68e1239773bb7a380ddc20e8da8173601458d8189832b5e",
	"n8-Theorem4.4/random/seed3":     "03f38bb55373f29e7a1cf3c8e547a39bf84bf72ba88008ff6360b6af5db5433e",
	"n8-Theorem4.4/random/seed4":     "206fc52f612afc146090269dbd6203e72412fe0622176c926cce290ed2e14d12",
	"n8-Theorem4.4/roundrobin/seed1": "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"n8-Theorem4.4/roundrobin/seed2": "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"n8-Theorem4.4/roundrobin/seed3": "c2ce380b03f4c7a52bb25495e3cc30104b99150a5d943039b7aee94fc86b3632",
	"n8-Theorem4.4/roundrobin/seed4": "dfb68d393dbe10784cf154bff2560060f0228735f46e149acac1dd4cf1d4066b",
	"relaxed-bait/seed10":            "4cb81a26c577c07bbc1aec67389a2e5c3756150c85e28901e3a3b0a6173f9a9f",
	"relaxed-bait/seed11":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-bait/seed12":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-bait/seed13":            "f8e8c070621f27f9f85f9bf9d6d32fa1711781a76bacca664562309e3aabc62a",
	"relaxed-drop/seed1":             "c076d5fca4d7541aad526a6f9af2cdce617b321fb9f280c8a3d6284a0b9fae61",
	"relaxed-drop/seed2":             "3990ba9d932ced52ae9b59d2d6a29a5ffb77f3f8fa87f30b677cf02594a6e230",
	"relaxed-drop/seed3":             "ba6d689791831d2f8dc90974a6488083f723d2a95bdc1e7f3c84765fc3191676",
	"relaxed-drop/seed4":             "658d803bd58d02ccf0686aaabbf685aa6aa762ba41f9eea82f2892d3e4895612",
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

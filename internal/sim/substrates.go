package sim

import (
	"fmt"
	"math/rand"

	"asyncmediator/internal/acs"
	"asyncmediator/internal/async"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/rbc"
)

// E8 measures the substrate protocols' message costs and, for Byzantine
// agreement, the shared-coin vs local-coin ablation.
func E8(o Options) (*Table, error) { return runSerial("e8", o) }

// substrateCell is one grid point of E8: a protocol at a system size.
type substrateCell struct {
	label string
	n     int
	run   func(n, tf int, seed int64) (msgs, steps int, err error)
}

func (e *Engine) e8(o Options) (*Table, error) {
	t := &Table{
		Title:  "E8: substrate ablation (messages per instance)",
		Header: []string{"protocol", "n", "t", "msgs", "steps"},
	}
	var cells []substrateCell
	for _, n := range []int{4, 7, 10} {
		cells = append(cells, substrateCell{"rbc", n, runRBC})
	}
	for _, n := range []int{4, 7, 10} {
		cells = append(cells, substrateCell{"ba (shared coin)", n,
			func(n, tf int, seed int64) (int, int, error) { return runBA(n, tf, seed, true) }})
	}
	for _, n := range []int{4, 7} {
		cells = append(cells, substrateCell{"ba (local coin)", n,
			func(n, tf int, seed int64) (int, int, error) { return runBA(n, tf, seed, false) }})
	}
	for _, n := range []int{4, 7} {
		cells = append(cells, substrateCell{"acs", n, runACS})
	}
	// E8's grid axis is the cells themselves (one deterministic run each),
	// so the shard span is 1: every cell is its own pool job. Results land
	// in per-cell slots and rows are appended in cell order.
	type cellResult struct {
		msgs, steps int
		err         error
	}
	results := make([]cellResult, len(cells))
	e.forSpans(len(cells), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := cells[i]
			tf := (c.n - 1) / 3
			r := &results[i]
			r.msgs, r.steps, r.err = c.run(c.n, tf, o.Seed0)
		}
	})
	for i, c := range cells {
		tf := (c.n - 1) / 3
		if results[i].err != nil {
			t.AddError(fmt.Sprintf("%s,n=%d", c.label, c.n), results[i].err, c.label, c.n, tf)
			continue
		}
		t.AddRow(c.label, c.n, tf, results[i].msgs, results[i].steps)
	}
	t.Notes = append(t.Notes,
		"rbc is O(n^2); ba with a shared coin finishes in O(1) expected rounds; local coins are slower",
		"acs = n rbc + n ba instances")
	return t, nil
}

func runRBC(n, tf int, seed int64) (msgs, steps int, err error) {
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		h := proto.NewHost()
		var inst *rbc.RBC
		if i == 0 {
			inst = rbc.NewDealer(0, tf, []byte("v"), nil)
		} else {
			inst = rbc.New(0, tf, nil)
		}
		if err := h.Register("rbc", inst); err != nil {
			return 0, 0, err
		}
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	res, err := rt.Run()
	if err != nil {
		return 0, 0, err
	}
	return res.Stats.MessagesSent, res.Stats.Steps, nil
}

func runBA(n, tf int, seed int64, sharedCoin bool) (msgs, steps int, err error) {
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		h := proto.NewHost()
		var coin ba.Coin
		if sharedCoin {
			coin = ba.SharedCoin{Seed: seed}
		} else {
			coin = &ba.LocalCoin{Rng: rand.New(rand.NewSource(seed + int64(i)))}
		}
		inst := ba.New(n, tf, coin, nil)
		if err := h.Register("ba", inst); err != nil {
			return 0, 0, err
		}
		v := i % 2
		hh := h
		h.OnStart(func(env *async.Env) {
			inst.Propose(hh.Ctx(env, "ba"), v)
		})
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	res, err := rt.Run()
	if err != nil {
		return 0, 0, err
	}
	return res.Stats.MessagesSent, res.Stats.Steps, nil
}

func runACS(n, tf int, seed int64) (msgs, steps int, err error) {
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		h := proto.NewHost()
		inst := acs.New(n, tf, ba.SharedCoin{Seed: seed}, nil)
		if err := h.Register("acs", inst); err != nil {
			return 0, 0, err
		}
		v := []byte(fmt.Sprintf("v%d", i))
		hh := h
		h.OnStart(func(env *async.Env) {
			inst.Propose(hh.Ctx(env, "acs"), v)
		})
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	res, err := rt.Run()
	if err != nil {
		return 0, 0, err
	}
	return res.Stats.MessagesSent, res.Stats.Steps, nil
}

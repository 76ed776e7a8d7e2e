package sim

import (
	"math/rand/v2"

	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/syncct"
)

// e7 regenerates the paper's headline comparison: synchrony implements the
// mediator at n > 3k+3t (R1), while exact asynchronous implementation
// needs n > 4k+4t (Theorem 4.1) — "the cost of asynchrony is an extra
// k+t". The crossover row is n = 3(k+t)+1: sync succeeds, async-exact is
// infeasible, async-epsilon succeeds (Theorem 4.2 closes the gap by
// accepting epsilon error).
func (e *Engine) e7(o Options) (*Table, error) {
	t := &Table{
		Title:  "E7: synchronous (R1) vs asynchronous (Thm 4.1/4.2) cheap talk",
		Header: []string{"k", "t", "n", "sync (R1)", "async exact (4.1)", "async epsilon (4.2)"},
	}
	for _, kt := range [][2]int{{1, 0}, {0, 1}} {
		k, tf := kt[0], kt[1]
		d := k + tf
		for _, n := range []int{3*d + 1, 4 * d, 4*d + 1} {
			syncRes := e.runSyncLottery(n, d, tf, o)
			exact := e.runAsyncLottery(n, k, tf, core.Exact41, o)
			eps := e.runAsyncLottery(n, k, tf, core.Epsilon42, o)
			t.AddRow(k, tf, n, syncRes, exact, eps)
		}
	}
	t.Notes = append(t.Notes,
		"'ok' = all honest parties output the same lottery bit in every trial",
		"the crossover: at n = 3(k+t)+1 synchrony wins; asynchrony needs n > 4(k+t) for exactness")
	return t, nil
}

// verdictTrials evaluates per-trial verdict strings in fixed-size batches
// of parallel shards and returns the first non-"ok" verdict in trial
// order, or "ok". Stopping at the end of the batch containing the first
// failure preserves the serial loop's early exit (to batch granularity)
// without costing determinism: batch boundaries are a function of the
// trial count alone, and later batches can never change the answer.
func (e *Engine) verdictTrials(trials int, fn func(trial int) string) string {
	const batch = 4 * shardTrials
	for lo := 0; lo < trials; lo += batch {
		hi := lo + batch
		if hi > trials {
			hi = trials
		}
		out := make([]string, hi-lo)
		e.forSpans(hi-lo, shardTrials, func(_, a, b int) {
			for s := a; s < b; s++ {
				out[s] = fn(lo + s)
			}
		})
		for _, v := range out {
			if v != "ok" {
				return v
			}
		}
	}
	return "ok"
}

func (e *Engine) runSyncLottery(n, d, faults int, o Options) string {
	return e.verdictTrials(o.Trials, func(s int) string {
		return syncLotteryTrial(n, d, faults, o.Seed0, s)
	})
}

// lotteryLabel keys the synchronous lottery players' streams: player i of
// a trial draws from stream i of the trial's seed.
const lotteryLabel = "sim/e7-lottery"

func syncLotteryTrial(n, d, faults int, seed0 int64, trial int) string {
	procs := make([]syncct.Process, n)
	for i := 0; i < n; i++ {
		key := async.StreamKey(lotteryLabel, core.TrialSeed(seed0, trial), uint64(i))
		p, err := syncct.NewLotteryPlayer(i, n, d, faults, rand.NewChaCha8(key))
		if err != nil {
			return "infeasible"
		}
		procs[i] = p
	}
	syncct.Run(procs, 10)
	var first game.Action
	for i, p := range procs {
		a, ok := p.Output()
		if !ok || (a != 0 && a != 1) {
			return "failed"
		}
		if i == 0 {
			first = a
		} else if a != first {
			return "disagreement"
		}
	}
	return "ok"
}

func (e *Engine) runAsyncLottery(n, k, tf int, v core.Variant, o Options) string {
	p, err := buildParams(n, k, tf, v)
	if err != nil {
		return "infeasible"
	}
	if err := p.Validate(); err != nil {
		return "infeasible (bound)"
	}
	types := make([]game.Type, n)
	trials := o.Trials
	if trials > 6 {
		trials = 6 // full MPC runs are costly; the verdict is binary
	}
	return e.verdictTrials(trials, func(s int) string {
		return asyncLotteryTrial(p, types, core.TrialSeed(o.Seed0, s), o.MaxSteps)
	})
}

func asyncLotteryTrial(p core.Params, types []game.Type, seed int64, maxSteps int) string {
	prof, res, err := core.Run(core.RunConfig{
		Params: p, Types: types, Seed: seed, MaxSteps: maxSteps,
	})
	if err != nil || res.Deadlocked {
		return "failed"
	}
	for _, a := range prof {
		if a != prof[0] || (a != 0 && a != 1) {
			return "disagreement"
		}
	}
	return "ok"
}

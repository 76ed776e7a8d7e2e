package sim

import (
	"fmt"

	"asyncmediator/internal/adversary"
	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

func isUnanimous(p game.Profile) bool {
	for _, a := range p {
		if a != p[0] || a == game.NoMove {
			return false
		}
	}
	return true
}

// cellKey names one grid point for error reporting.
func cellKey(k, t, n int) string { return fmt.Sprintf("k=%d,t=%d,n=%d", k, t, n) }

// boundExperiment produces one theorem's table: rows at the bound and one
// above, plus a rejected row below the bound. A cell that fails mid-trial
// is reported in the table's Errors and the sweep continues.
func (e *Engine) boundExperiment(title string, v core.Variant, grids [][2]int, o Options) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"k", "t", "n", "status", "unanimity", "impl-dist", "value", "mute-dev value", "corrupt-dev value", "msgs/run"},
	}
	for _, kt := range grids {
		k, tf := kt[0], kt[1]
		bound := v.Bound(k, tf)
		for _, n := range []int{bound - 1, bound, bound + 1} {
			if n <= 3*maxInt(k, 1) {
				continue // underlying game needs n > 3k
			}
			p, err := core.Section64Params(n, k, tf, v)
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			if err := p.Validate(); err != nil {
				t.AddRow(k, tf, n, "below bound: rejected", "-", "-", "-", "-", "-", "-")
				continue
			}
			unan, dist, val, msgs, err := e.honestStats(p, o)
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			// Deviation 1: a coalition player goes silent mid-protocol.
			muteVal, err := e.deviationValue(p, o, deviatorIndex(n), func(seed int64) (map[int]async.Process, error) {
				hp, err := core.NewPlayer(p, deviatorIndex(n), 0)
				if err != nil {
					return nil, err
				}
				return map[int]async.Process{deviatorIndex(n): adversary.MuteAfter(hp, 12)}, nil
			})
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			// Deviation 2: corrupt opening shares.
			corVal, err := e.deviationValue(p, o, deviatorIndex(n), func(seed int64) (map[int]async.Process, error) {
				hp, err := core.NewPlayer(p, deviatorIndex(n), 0)
				if err != nil {
					return nil, err
				}
				return map[int]async.Process{deviatorIndex(n): adversary.CorruptOpens(hp, 5)}, nil
			})
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			t.AddRow(k, tf, n, "ok", unan, dist, val, muteVal, corVal, msgs)
		}
	}
	t.Notes = append(t.Notes,
		"value is the honest expected utility (Section 6.4 lottery: 1.5 at the equilibrium)",
		"mute/corrupt-dev values are the deviator's expected utility; no profitable deviation means <= value (+eps)")
	return t, nil
}

func deviatorIndex(n int) int { return n - 1 }

// muteCoalition overrides the last `size` players with honest processes
// that go silent after a small message budget (the coalition's joint
// stall). The deviators' wills remain the punishment (registered before
// the mute takes effect), matching the paper's model: a deviator cannot
// prevent its own will from being known since the will is declared at the
// start.
func muteCoalition(p core.Params, size int) func(seed int64) (map[int]async.Process, error) {
	n := p.Game.N
	return func(seed int64) (map[int]async.Process, error) {
		ov := make(map[int]async.Process, size)
		for j := 0; j < size; j++ {
			idx := n - 1 - j
			hp, err := core.NewPlayer(p, idx, 0)
			if err != nil {
				return nil, err
			}
			ov[idx] = adversary.MuteAfter(hp, 12)
		}
		return ov, nil
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// e1 regenerates Theorem 4.1's claim: exact implementation and robustness
// at n > 4k+4t, rejection below.
func (e *Engine) e1(o Options) (*Table, error) {
	return e.boundExperiment("E1: Theorem 4.1 (exact, no punishment; n > 4k+4t)",
		core.Exact41, [][2]int{{1, 0}, {0, 1}}, o)
}

// e2 regenerates Theorem 4.2's claim at n > 3k+3t with epsilon error.
func (e *Engine) e2(o Options) (*Table, error) {
	return e.boundExperiment("E2: Theorem 4.2 (epsilon, no punishment; n > 3k+3t)",
		core.Epsilon42, [][2]int{{1, 0}, {0, 1}}, o)
}

// e3 regenerates Theorem 4.4: punishment wills make stalling unprofitable
// at n > 3k+4t, and the weak implementation's O(n) mediator messages.
func (e *Engine) e3(o Options) (*Table, error) {
	t := &Table{
		Title:  "E3: Theorem 4.4 (exact with (k+t)-punishment, AH wills; n > 3k+4t)",
		Header: []string{"k", "t", "n", "status", "honest value", "stall-dev value", "punished?", "msgs/run"},
	}
	for _, kt := range [][2]int{{1, 0}, {1, 1}} {
		k, tf := kt[0], kt[1]
		bound := core.Punish44.Bound(k, tf)
		for _, n := range []int{bound - 1, bound} {
			if n <= 3*k {
				continue
			}
			p, err := core.Section64Params(n, k, tf, core.Punish44)
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			if err := p.Validate(); err != nil {
				t.AddRow(k, tf, n, "below bound: rejected", "-", "-", "-", "-")
				continue
			}
			_, _, val, msgs, err := e.honestStats(p, o)
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			// The key mechanism: the WHOLE coalition (k rational + t
			// malicious players) stalls mid-protocol. That exceeds the
			// fault budget t, so the talk deadlocks; everyone's will is
			// the punishment; the coalition ends up strictly worse off.
			// (A stall by only t players is tolerated outright.)
			stallVal, err := e.deviationValue(p, o, deviatorIndex(n), muteCoalition(p, k+tf))
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			punished := "no"
			if stallVal < val-0.05 {
				punished = "yes"
			}
			t.AddRow(k, tf, n, "ok", val, stallVal, punished, msgs)
		}
	}
	t.Notes = append(t.Notes,
		"stalling triggers the punishment wills (all-Bottom: value 1.1 < 1.5), so rational players participate")
	return t, nil
}

// e4 regenerates Theorem 4.5 at n > 2k+3t.
func (e *Engine) e4(o Options) (*Table, error) {
	t := &Table{
		Title:  "E4: Theorem 4.5 (epsilon with (2k+2t)-punishment, AH wills; n > 2k+3t)",
		Header: []string{"k", "t", "n", "status", "unanimity", "impl-dist", "honest value", "stall-dev value", "punished?"},
	}
	for _, kt := range [][2]int{{1, 0}, {1, 1}} {
		k, tf := kt[0], kt[1]
		bound := core.Punish45.Bound(k, tf)
		for _, n := range []int{bound - 1, bound} {
			if n <= 3*k {
				continue
			}
			p, err := core.Section64Params(n, k, tf, core.Punish45)
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			if err := p.Validate(); err != nil {
				t.AddRow(k, tf, n, "below bound: rejected", "-", "-", "-", "-", "-")
				continue
			}
			unan, dist, val, _, err := e.honestStats(p, o)
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			stallVal, err := e.deviationValue(p, o, deviatorIndex(n), muteCoalition(p, k+tf))
			if err != nil {
				t.AddError(cellKey(k, tf, n), err, k, tf, n)
				continue
			}
			punished := "no"
			if stallVal < val-0.05 {
				punished = "yes"
			}
			t.AddRow(k, tf, n, "ok", unan, dist, val, stallVal, punished)
		}
	}
	return t, nil
}

// e5 measures the O(nNc) message-complexity shape: cheap-talk messages as
// a function of n (players), c (random-bit gates), and the mediator-game
// message count as a function of R (canonical rounds, the paper's N).
func (e *Engine) e5(o Options) (*Table, error) {
	t := &Table{
		Title:  "E5: message complexity O(nNc)",
		Header: []string{"sweep", "x", "msgs/run"},
	}
	// Sweep n with one random-bit gate.
	for _, n := range []int{4, 5, 6, 7} {
		p, err := core.Section64Params(n, 1, 0, core.Epsilon42)
		if err != nil {
			t.AddError(fmt.Sprintf("n=%d", n), err, "n (c=1 bit)", n)
			continue
		}
		if p.Validate() != nil {
			continue
		}
		_, _, _, msgs, err := e.honestStats(p, Options{Trials: 3, Seed0: o.Seed0, MaxSteps: o.MaxSteps})
		if err != nil {
			t.AddError(fmt.Sprintf("n=%d", n), err, "n (c=1 bit)", n)
			continue
		}
		t.AddRow("n (c=1 bit)", n, msgs)
	}
	// Sweep circuit size: number of lottery bits (each adds a randbit
	// gate plus selection gates).
	for _, bits := range []int{1, 2, 3} {
		p, err := core.Section64Params(5, 1, 0, core.Exact41)
		if err != nil {
			t.AddError(fmt.Sprintf("bits=%d", bits), err, "c (randbits, n=5)", bits)
			continue
		}
		circ, err := buildMultiBit(5, bits)
		if err != nil {
			t.AddError(fmt.Sprintf("bits=%d", bits), err, "c (randbits, n=5)", bits)
			continue
		}
		p.Circuit = circ
		_, _, _, msgs, err := e.honestStats(p, Options{Trials: 3, Seed0: o.Seed0, MaxSteps: o.MaxSteps})
		if err != nil {
			t.AddError(fmt.Sprintf("bits=%d", bits), err, "c (randbits, n=5)", bits)
			continue
		}
		t.AddRow("c (randbits, n=5)", bits, msgs)
	}
	// Sweep mediator-game rounds R (the paper's N): 2Rn messages.
	g, err := game.Section64Game(4, 1)
	if err != nil {
		return nil, err
	}
	circ, err := mediator.Section64Circuit(4)
	if err != nil {
		return nil, err
	}
	for _, rounds := range []int{1, 2, 4, 8} {
		_, res, err := mediator.Run(mediator.Config{
			Game: g, Circuit: circ, Types: make([]game.Type, 4),
			Approach: game.ApproachAH, Rounds: rounds, Seed: o.Seed0,
		})
		if err != nil {
			t.AddError(fmt.Sprintf("R=%d", rounds), err, "R (mediator rounds, n=4)", rounds)
			continue
		}
		t.AddRow("R (mediator rounds, n=4)", rounds, res.Stats.MessagesSent)
	}
	t.Notes = append(t.Notes,
		"c: each random bit adds exactly n² messages, its public opening (every dealer deals all its values in one AVSS dealing)",
		"R: each mediator round adds 2n messages",
		"n: superlinear, since every dealing, agreement and opening is all-to-all")
	return t, nil
}

// e6 reproduces the Section 6.4 counterexample: the leaky mediator loses
// 0.05 of equilibrium value to the coalition; the minimally informative
// mediator restores it.
func (e *Engine) e6(o Options) (*Table, error) {
	t := &Table{
		Title:  "E6: Section 6.4 — naive mediator vs minimally informative (n=4, k=1)",
		Header: []string{"mediator", "coalition value", "paper"},
	}
	n, k := 4, 1
	g, err := game.Section64Game(n, k)
	if err != nil {
		return nil, err
	}
	trials := maxInt(o.Trials, 100) * 4 // the estimate needs resolution
	leaky, err := e.meanValue(trials, func(s int) (float64, error) {
		return runSection64(g, n, k, true, core.TrialSeed(o.Seed0, s))
	})
	if err != nil {
		t.AddError("leaky", err, "leaky (sends a+b*i hints)")
	} else {
		t.AddRow("leaky (sends a+b*i hints)", leaky, "1.55")
	}
	fixed, err := e.meanValue(trials, func(s int) (float64, error) {
		return runSection64(g, n, k, false, core.TrialSeed(o.Seed0, s))
	})
	if err != nil {
		t.AddError("fixed", err, "minimally informative f(sigma_d)")
	} else {
		t.AddRow("minimally informative f(sigma_d)", fixed, "1.50")
	}
	t.Notes = append(t.Notes,
		"equilibrium value 1.5; the leaky mediator lets the coalition+scheduler force the punishment exactly when b=0")
	return t, nil
}

func runSection64(g *game.Game, n, k int, leaky bool, seed int64) (float64, error) {
	board := adversary.NewBoard()
	procs := make([]async.Process, n+1)
	for i := 0; i < n; i++ {
		if i <= 1 {
			procs[i] = &adversary.HintPooler{
				Mediator: async.PID(n), Index: i, Board: board, G: g, Will: game.Bottom,
			}
			continue
		}
		w := game.Bottom
		procs[i] = &mediator.HonestPlayer{Mediator: async.PID(n), Type: 0, G: g, Will: &w}
	}
	if leaky {
		procs[n] = mediator.NewLeaky(n)
	} else {
		circ, err := mediator.Section64Circuit(n)
		if err != nil {
			return 0, err
		}
		procs[n] = &mediator.CircuitMediator{
			N: n, Circ: circ, WaitFor: n - k, Rounds: 1, NumTypes: g.NumTypes,
		}
	}
	sched := &adversary.BaitScheduler{
		Base: &async.RoundRobinScheduler{}, Mediator: async.PID(n), Board: board,
	}
	rt, err := async.New(async.Config{
		Procs: procs, Players: n, Scheduler: sched, Seed: seed, Relaxed: true,
	})
	if err != nil {
		return 0, err
	}
	res, err := rt.Run()
	if err != nil {
		return 0, err
	}
	prof := mediator.ResolveMoves(g, make([]game.Type, n), res, game.ApproachAH)
	return g.Utility(make([]game.Type, n), prof)[0], nil
}

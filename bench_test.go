// Top-level benchmarks: one per experiment E1-E7 of package sim's
// catalog (`mediatorsim -h` lists it). Each bench regenerates (a slice of)
// the corresponding table's workload; the tables themselves are printed
// by cmd/mediatorsim, and no expected table is committed. The end-to-end
// cost of a served play is measured by bench/ (`bash bench/run.sh`).
package main

import (
	"fmt"
	"testing"

	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/sim"
)

func benchParams(b *testing.B, n, k, t int, v core.Variant) core.Params {
	b.Helper()
	p, err := core.Section64Params(n, k, t, v)
	if err != nil {
		b.Fatal(err)
	}
	p.CoinSeed = 31
	return p
}

// benchCheapTalk measures one full cheap-talk run per iteration and
// reports messages per run.
func benchCheapTalk(b *testing.B, n, k, t int, v core.Variant) {
	b.Helper()
	p := benchParams(b, n, k, t, v)
	types := make([]game.Type, n)
	totalMsgs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err := core.Run(core.RunConfig{
			Params: p, Types: types, Seed: int64(i), MaxSteps: 50_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		totalMsgs += res.Stats.MessagesSent
	}
	b.ReportMetric(float64(totalMsgs)/float64(b.N), "msgs/run")
}

// BenchmarkE1_Theorem41 exercises the exact-implementation protocol at its
// bound n = 4k+4t+1.
func BenchmarkE1_Theorem41(b *testing.B) {
	for _, kt := range [][2]int{{1, 0}, {0, 1}} {
		k, t := kt[0], kt[1]
		n := core.Exact41.Bound(k, t)
		b.Run(fmt.Sprintf("k=%d,t=%d,n=%d", k, t, n), func(b *testing.B) {
			benchCheapTalk(b, n, k, t, core.Exact41)
		})
	}
}

// BenchmarkE2_Theorem42 exercises the epsilon protocol at n = 3k+3t+1.
func BenchmarkE2_Theorem42(b *testing.B) {
	for _, kt := range [][2]int{{1, 0}, {0, 1}} {
		k, t := kt[0], kt[1]
		n := core.Epsilon42.Bound(k, t)
		b.Run(fmt.Sprintf("k=%d,t=%d,n=%d", k, t, n), func(b *testing.B) {
			benchCheapTalk(b, n, k, t, core.Epsilon42)
		})
	}
}

// BenchmarkE3_Theorem44 exercises the punishment protocol at n = 3k+4t+1.
func BenchmarkE3_Theorem44(b *testing.B) {
	for _, kt := range [][2]int{{1, 0}, {1, 1}} {
		k, t := kt[0], kt[1]
		n := core.Punish44.Bound(k, t)
		b.Run(fmt.Sprintf("k=%d,t=%d,n=%d", k, t, n), func(b *testing.B) {
			benchCheapTalk(b, n, k, t, core.Punish44)
		})
	}
}

// BenchmarkE4_Theorem45 exercises the epsilon+punishment protocol at
// n = 2k+3t+1. (k=1,t=0 is excluded: its bound n=3 cannot host the
// Section 6.4 game, which needs n > 3k.)
func BenchmarkE4_Theorem45(b *testing.B) {
	for _, kt := range [][2]int{{0, 1}, {1, 1}} {
		k, t := kt[0], kt[1]
		n := core.Punish45.Bound(k, t)
		b.Run(fmt.Sprintf("k=%d,t=%d,n=%d", k, t, n), func(b *testing.B) {
			benchCheapTalk(b, n, k, t, core.Punish45)
		})
	}
}

// BenchmarkE5_MessageComplexity sweeps n at fixed circuit (the O(n...)
// axis) and the mediator-game round count (the O(N) axis).
func BenchmarkE5_MessageComplexity(b *testing.B) {
	for _, n := range []int{4, 5, 6, 7} {
		b.Run(fmt.Sprintf("cheaptalk-n=%d", n), func(b *testing.B) {
			benchCheapTalk(b, n, 1, 0, core.Epsilon42)
		})
	}
	g, err := game.Section64Game(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	circ, err := mediator.Section64Circuit(4)
	if err != nil {
		b.Fatal(err)
	}
	for _, rounds := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("mediator-R=%d", rounds), func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				_, res, err := mediator.Run(mediator.Config{
					Game: g, Circuit: circ, Types: make([]game.Type, 4),
					Approach: game.ApproachAH, Rounds: rounds, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Stats.MessagesSent
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/run")
		})
	}
}

// BenchmarkE6_PunishmentCounterexample regenerates the Section 6.4 table.
func BenchmarkE6_PunishmentCounterexample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := sim.Options{Trials: 25, Seed0: int64(i*1000 + 1), MaxSteps: 30_000_000}
		if _, err := sim.E6(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_SyncVsAsync compares the synchronous baseline (R1's regime,
// n > 3k+3t) against the asynchronous protocol at the same n.
func BenchmarkE7_SyncVsAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := sim.Options{Trials: 6, Seed0: int64(i + 1), MaxSteps: 30_000_000}
		if _, err := sim.E7(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentSweep measures the sharded experiment engine: one E1
// sweep (the paper's workhorse grid — honest plays plus two deviations at
// each parameter point) per iteration, at increasing worker counts. The
// tables are byte-identical across the sub-benchmarks; only the wall
// clock moves. This is the measurement behind the "≥2x at 4 workers"
// acceptance line — compare the workers=1 and workers=4 ns/op.
func BenchmarkExperimentSweep(b *testing.B) {
	o := sim.Options{Trials: 16, Seed0: 1, MaxSteps: 30_000_000}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := sim.NewEngine(workers)
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := eng.Sweep([]string{"e1"}, o)
				if err != nil {
					b.Fatal(err)
				}
				for _, tab := range rep.Tables {
					if len(tab.Errors) > 0 {
						b.Fatalf("cell errors: %+v", tab.Errors)
					}
				}
			}
		})
	}
}

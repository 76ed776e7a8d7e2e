package async_test

import (
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
)

// benchmarkPlay runs the n=8, k=1, t=1 Theorem 4.4 play (the lib-n8
// benchmark workload) once per iteration under the named scheduler.
func benchmarkPlay(b *testing.B, scheduler string) {
	p, err := core.Section64Params(8, 1, 1, core.Punish44)
	if err != nil {
		b.Fatal(err)
	}
	types := make([]game.Type, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		sched, err := async.SchedulerByName(scheduler, seed)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.Run(core.RunConfig{Params: p, Types: types, Seed: seed, Scheduler: sched}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRoundRobin(b *testing.B) { benchmarkPlay(b, "roundrobin") }
func BenchmarkRunRandom(b *testing.B)     { benchmarkPlay(b, "random") }
func BenchmarkRunFIFO(b *testing.B)       { benchmarkPlay(b, "fifo") }

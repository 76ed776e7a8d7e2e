package wire

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"asyncmediator/internal/async"
	"asyncmediator/internal/cluster"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

// TestCoHostedPlayAllocationBudget fails when a warm wire play of the
// consensus game under Theorem 4.2 (n=4, k=1, t=0, seed 1), all four
// nodes on one endpoint as a daemon hosts them, allocates more than
// 9,500 times or 450 KB. Each figure is the least of ten plays after
// three warm-up plays have filled the endpoint's idle pool and the
// transport's and runtime's pools: the nodes interleave differently on
// every play, which moves the count by up to a fifth, and goroutines
// outside the play, such as the last play's ACK timers, can only add to
// a play's figure. A -race build checks only the count.
func TestCoHostedPlayAllocationBudget(t *testing.T) {
	const n = 4
	circ, err := mediator.MajorityCircuit(n)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{
		Game: game.ConsensusGame(n), Circuit: circ, K: 1,
		Variant: core.Epsilon42, Approach: game.ApproachAH,
		Punishment: make(game.Profile, n), Epsilon: 0.1,
	}
	ep := cluster.NewEndpoint(cluster.EndpointConfig{})
	t.Cleanup(ep.Close)
	plays := 0
	play := func() {
		procs, err := core.BuildProcs(core.RunConfig{Params: params, Types: make([]game.Type, n)})
		if err != nil {
			t.Fatal(err)
		}
		plays++
		nodes := make([]*Node, n)
		for p := range nodes {
			if nodes[p], err = NewNode(NodeConfig{
				Self: async.PID(p), N: n, Endpoint: ep, Proc: procs[p], Seed: 1,
				ClusterID: fmt.Sprintf("budget-%d", plays),
			}); err != nil {
				t.Fatal(err)
			}
		}
		addrs := make([]string, n)
		for p := range addrs {
			addrs[p] = ep.Addr()
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		for p, nd := range nodes {
			nd.SetAddrs(addrs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, errs[p] = nd.Run(20 * time.Second)
			}()
		}
		wg.Wait()
		for _, nd := range nodes {
			nd.Stop()
		}
		for p, err := range errs {
			if err != nil {
				t.Fatalf("player %d: %v", p, err)
			}
		}
	}
	for range 3 {
		play()
	}
	allocs, bytes := ^uint64(0), ^uint64(0)
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		play()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d allocations, %.1f KB per play", allocs, float64(bytes)/1024)
	if allocs > 9_500 {
		t.Fatalf("a play allocates %d times, budget 9,500", allocs)
	}
	if bytes > 450<<10 && !raceEnabled {
		t.Fatalf("a play allocates %.0f KB, budget 450 KB", float64(bytes)/1024)
	}
}

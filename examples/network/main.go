// Network: the complete cheap-talk protocol over real TCP sockets.
//
// Four player processes — the same ones the deterministic experiments
// compile — form a localhost mesh (one goroutine per node, binary-encoded
// frames on the wire) and jointly evaluate the Section 6.4 lottery
// mediator under Theorem 4.2's parameters. No process ever sees the
// lottery bit before the joint opening; there is no trusted party
// anywhere.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	n, k := 4, 1
	g, err := game.Section64Game(n, k)
	if err != nil {
		return err
	}
	circ, err := mediator.Section64Circuit(n)
	if err != nil {
		return err
	}
	params := core.Params{
		Game: g, Circuit: circ, K: k, T: 0,
		Variant: core.Epsilon42, Approach: game.ApproachAH,
		Epsilon: 0.05, CoinSeed: 5,
	}

	procs := make([]async.Process, n)
	for i := range procs {
		if procs[i], err = core.NewPlayer(params, i, 0); err != nil {
			return err
		}
	}
	// Every node binds its own ephemeral loopback port and keeps it, so
	// the mesh is addressed before any node runs.
	nodes, err := wire.NewLocalMesh(procs, 0, 100)
	if err != nil {
		return err
	}
	addrs := make([]string, n)
	for i, node := range nodes {
		addrs[i] = node.Addr()
	}

	fmt.Printf("4 players listening on %v\n", addrs)
	start := time.Now()
	moves := make([]game.Action, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			mv, ok, err := nodes[i].Run(60 * time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			if !ok {
				errs[i] = fmt.Errorf("no decision")
				return
			}
			moves[i] = mv.(game.Action)
		}()
	}
	wg.Wait()
	for _, node := range nodes {
		node.Stop()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	fmt.Printf("joint lottery finished in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("decisions: %v\n", moves)
	for _, m := range moves {
		if m != moves[0] {
			return fmt.Errorf("players disagree: %v", moves)
		}
	}
	fmt.Printf("all players agreed on bit %d — computed jointly over TCP, no mediator\n", moves[0])
	return nil
}

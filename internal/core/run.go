package core

import (
	"asyncmediator/internal/async"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
)

// RunConfig describes one play of the cheap-talk game.
type RunConfig struct {
	Params Params
	// Types is the realized type profile.
	Types []game.Type
	// Scheduler defaults to round-robin.
	Scheduler async.Scheduler
	Seed      int64
	// Override replaces player processes (deviators, crashers, coalition
	// members). Keys are player indices.
	Override map[int]async.Process
	// MaxSteps guards against livelock; defaults to the runtime's default.
	MaxSteps int
	// Trace, when set, receives the runtime's per-step trace entries
	// (async.Config.Trace).
	Trace func(async.TraceEntry)
	// Wrap, when set, decorates every compiled player process (including
	// Override entries) — the hosting layer's seam for observability.
	Wrap func(p int, proc async.Process) async.Process
}

// Run plays the cheap-talk game once and returns the resolved action
// profile (after wills or default moves) plus the runtime result.
func Run(cfg RunConfig) (game.Profile, *async.Result, error) {
	p := cfg.Params
	g := p.Game
	procs, err := BuildProcs(cfg)
	if err != nil {
		return nil, nil, err
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = &async.RoundRobinScheduler{}
	}
	rt, err := async.New(async.Config{
		Procs:     procs,
		Scheduler: sched,
		Seed:      cfg.Seed,
		MaxSteps:  cfg.MaxSteps,
		Trace:     cfg.Trace,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := rt.Run()
	if err != nil {
		return nil, nil, err
	}
	return mediator.ResolveMoves(g, cfg.Types, res, p.Approach), res, nil
}

// TrialSeed derives the deterministic seed of one trial in a Monte-Carlo
// sweep: trial i of a sweep anchored at seed0 always plays with seed0+i,
// whether the trials run serially or sharded across a worker pool.
func TrialSeed(seed0 int64, trial int) int64 { return seed0 + int64(trial) }

// HonestTrial plays one honest cheap-talk trial and its mediator-game
// reference at the same seed, the paired sample behind every
// implementation-distance estimate. It is the unit of work the experiment
// engine shards across workers; Params and Types are only read, so many
// trials may share them concurrently.
func HonestTrial(p Params, types []game.Type, seed int64, maxSteps int) (talk, ideal game.Profile, res *async.Result, err error) {
	talk, res, err = Run(RunConfig{Params: p, Types: types, Seed: seed, MaxSteps: maxSteps})
	if err != nil {
		return nil, nil, nil, err
	}
	ideal, _, err = MediatorReference(p, types, nil, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return talk, ideal, res, nil
}

// MediatorReference plays the corresponding mediator game once (the ideal
// world the cheap talk must implement) and returns the resolved profile.
// The mediator waits for n-k-t complete input sets, mirroring the talk's
// core-set threshold.
func MediatorReference(p Params, types []game.Type, sched async.Scheduler, seed int64) (game.Profile, *async.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	wills := map[int]game.Action{}
	if p.Variant == Punish44 || p.Variant == Punish45 {
		for i, a := range p.Punishment {
			wills[i] = a
		}
	}
	return mediator.Run(mediator.Config{
		Game:      p.Game,
		Circuit:   p.Circuit,
		Types:     types,
		WaitFor:   p.Game.N - p.K - p.T,
		Rounds:    1,
		Approach:  p.Approach,
		Wills:     wills,
		Scheduler: sched,
		Seed:      seed,
	})
}

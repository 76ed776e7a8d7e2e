package service

import (
	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
)

// runSim plays one session on the deterministic in-process runtime.
func runSim(s *Session, types []game.Type) (game.Profile, *async.Result, error) {
	tr := s.tracer()
	collect := newCollector(tr)
	prof, res, err := core.Run(core.RunConfig{
		Params:    s.params,
		Types:     types,
		Scheduler: newScheduler(s.Spec.Scheduler, s.seed),
		Seed:      s.seed,
		MaxSteps:  s.Spec.MaxSteps,
		Wrap:      collect.wrap(),
	})
	collect.flush()
	// The scheduler lane is folded in once after the run rather than via
	// a per-step core.RunConfig.Trace hook: a non-nil hook makes the
	// runtime materialize a TraceEntry (with message metadata copies)
	// every step, which costs far more than the lane is worth.
	if res != nil {
		tr.ObserveN("sched", originLocal, int64(res.Stats.Steps))
	}
	return prof, res, err
}

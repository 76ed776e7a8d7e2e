package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/wire"
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

// runWire plays one session as a real distributed system: the compiled
// player processes form a loopback TCP mesh (one node and goroutine per
// player, binary-encoded frames on the wire) and the operating system's
// scheduler replaces the simulated environment. The run result is
// assembled from each node's local game state, then resolved exactly like
// a simulated play.
func runWire(s *Session, types []game.Type, timeout time.Duration) (game.Profile, *async.Result, error) {
	collect := newCollector(s.tracer())
	procs, err := core.BuildProcs(core.RunConfig{Params: s.params, Types: types, Wrap: collect.wrap()})
	if err != nil {
		return nil, nil, err
	}
	nodes, err := wire.NewLocalMesh(procs, 0, s.seed)
	if err != nil {
		return nil, nil, err
	}
	n := len(nodes)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = nodes[i].Run(timeout)
		}()
	}
	wg.Wait()
	for _, node := range nodes {
		node.Stop()
		node.Wait()
	}
	collect.flush()
	// A timeout is the wire analogue of deadlock: the player resolves
	// through its will, like any undecided player. Any other node error
	// (dial failure, listener trouble) is a transport fault that fails
	// the session outright.
	for i, err := range errs {
		if err != nil && !errors.Is(err, wire.ErrTimeout) {
			return nil, nil, fmt.Errorf("service: wire node %d: %w", i, err)
		}
	}

	res := &async.Result{
		Moves:  make(map[async.PID]any, n),
		Wills:  make(map[async.PID]any, n),
		Halted: make([]bool, n),
	}
	for i, node := range nodes {
		r := node.Remote()
		if mv, ok := r.Move(); ok {
			res.Moves[async.PID(i)] = mv
		}
		if w, ok := r.Will(); ok {
			res.Wills[async.PID(i)] = w
		}
		res.Halted[i] = r.Halted()
		if _, decided := res.Moves[async.PID(i)]; !decided && !res.Halted[i] {
			res.Deadlocked = true
		}
		st := node.Stats()
		res.Stats.MessagesSent += int(st.Sent)
		res.Stats.MessagesDelivered += int(st.Delivered)
	}
	prof := mediator.ResolveMoves(s.params.Game, types, res, s.params.Approach)
	return prof, res, nil
}

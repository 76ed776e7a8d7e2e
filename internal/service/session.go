package service

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/obs"
	"asyncmediator/internal/sched"
)

// The wire shapes of sessions are defined once, in the api package (the
// versioned /v1 contract); the farm's internals operate directly on those
// types so handler, store, and SDK cannot drift apart.
type (
	// State is a session's lifecycle phase (api.State).
	State = api.State
	// Spec is the client-facing configuration of one hosted play
	// (api.SessionSpec).
	Spec = api.SessionSpec
	// View is a JSON-renderable snapshot of a session (api.SessionView).
	View = api.SessionView
)

// The session lifecycle, re-exported from the contract.
const (
	StateAwaitingTypes = api.StateAwaitingTypes
	StateQueued        = api.StateQueued
	StateRunning       = api.StateRunning
	StateDone          = api.StateDone
	StateFailed        = api.StateFailed
)

// normalizeSpec fills a spec's defaults in place.
func normalizeSpec(s *Spec) {
	if s.Game == "" {
		s.Game = "section64"
	}
	if s.N == 0 {
		s.N = 5
	}
	if s.K == 0 && s.T == 0 {
		s.T = 1 // the default serving configuration: k=0, n > 4t
	}
	if s.Variant == "" {
		s.Variant = "4.1"
	}
	if s.Scheduler == "" {
		s.Scheduler = "roundrobin"
	}
	if s.Backend == "" {
		if len(s.Peers) > 0 || s.Placement != nil {
			s.Backend = "wire" // cluster mode is the wire backend across daemons
		} else {
			s.Backend = "sim"
		}
	}
	if s.Placement != nil && s.Placement.Mode == "" {
		s.Placement.Mode = api.PlacementModeAuto
	}
	if s.MaxSteps == 0 {
		s.MaxSteps = 50_000_000
	}
}

// buildParams compiles a normalized Spec into validated core parameters.
func buildParams(s Spec) (core.Params, error) {
	v, err := core.ParseVariant(s.Variant)
	if err != nil {
		return core.Params{}, err
	}
	var p core.Params
	switch s.Game {
	case "section64":
		p, err = core.Section64Params(s.N, s.K, s.T, v)
		if err != nil {
			return core.Params{}, err
		}
	case "consensus":
		g := game.ConsensusGame(s.N)
		circ, err := mediator.MajorityCircuit(s.N)
		if err != nil {
			return core.Params{}, err
		}
		pun := make(game.Profile, s.N) // all-zero: a valid joint action
		p = core.Params{
			Game: g, Circuit: circ, K: s.K, T: s.T,
			Variant: v, Approach: game.ApproachAH,
			Punishment: pun, Epsilon: 0.1,
		}
	default:
		return core.Params{}, fmt.Errorf("service: unknown game %q (want section64 or consensus)", s.Game)
	}
	if _, err := async.SchedulerByName(s.Scheduler, 0); err != nil {
		return core.Params{}, err
	}
	switch s.Backend {
	case "sim", "wire":
	default:
		return core.Params{}, fmt.Errorf("service: unknown backend %q (want sim or wire)", s.Backend)
	}
	if s.Placement != nil {
		if s.Placement.Mode != api.PlacementModeAuto {
			return core.Params{}, fmt.Errorf("service: unknown placement mode %q (want %q)", s.Placement.Mode, api.PlacementModeAuto)
		}
		switch s.Placement.Strategy {
		case "", sched.StrategySpread, sched.StrategyPack, sched.StrategyStrict:
		default:
			return core.Params{}, fmt.Errorf("service: unknown placement strategy %q (want %s, %s, or %s)",
				s.Placement.Strategy, sched.StrategySpread, sched.StrategyPack, sched.StrategyStrict)
		}
		if s.Placement.MinDaemons < 0 {
			return core.Params{}, fmt.Errorf("service: min_daemons %d out of range", s.Placement.MinDaemons)
		}
		if s.Backend != "wire" {
			return core.Params{}, fmt.Errorf("service: placement requires the wire backend, not %q", s.Backend)
		}
	}
	if len(s.Peers) > 0 {
		if s.Backend != "wire" {
			return core.Params{}, fmt.Errorf("service: peers require the wire backend, not %q", s.Backend)
		}
		seen := make(map[int]bool, len(s.Peers))
		for _, peer := range s.Peers {
			if peer.Index < 0 || peer.Index >= p.Game.N {
				return core.Params{}, fmt.Errorf("service: peer index %d out of range for n=%d", peer.Index, p.Game.N)
			}
			if seen[peer.Index] {
				return core.Params{}, fmt.Errorf("service: player %d assigned to more than one peer", peer.Index)
			}
			seen[peer.Index] = true
			if peer.Addr == "" {
				return core.Params{}, fmt.Errorf("service: peer for player %d has no address", peer.Index)
			}
		}
	}
	if err := p.Validate(); err != nil {
		return core.Params{}, err
	}
	return p, nil
}

// newScheduler builds the simulation scheduler a Spec asks for. The name
// was validated at session creation, so an unknown one here is a bug.
func newScheduler(name string, seed int64) async.Scheduler {
	sched, err := async.SchedulerByName(name, seed)
	if err != nil {
		panic(err)
	}
	return sched
}

// Session is one hosted play of the cheap-talk game. The immutable fields
// (ID, Spec, params, seed) are set at creation; the mutable run state is
// guarded by mu.
type Session struct {
	ID     string
	Spec   Spec
	params core.Params
	seed   int64

	mu       sync.Mutex
	state    State
	types    []game.Type
	profile  game.Profile
	res      *async.Result
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	// trace is the play's bounded trace buffer (nil with tracing off);
	// it is minted by the executing worker and compacted into traceV at
	// finish — the live buffer's span map is pointer-dense, and a farm
	// retaining thousands of terminal sessions would pay for scanning it
	// every GC cycle. traceV is the flat wire-shape view embedded in
	// terminal snapshots, so it persists with the session record.
	trace  *obs.PlayTrace
	traceV *api.TraceView
	// placement records the scheduler's decision for a placement:"auto"
	// session (nil otherwise), set by the executing worker before the
	// play dispatches.
	placement *api.PlacementView

	// done closes when the session reaches a terminal state.
	done chan struct{}
}

// Params returns the compiled protocol parameters (immutable).
func (s *Session) Params() core.Params { return s.params }

// Seed returns the session's deterministic seed.
func (s *Session) Seed() int64 { return s.seed }

// Done returns a channel closed when the session completes or fails.
func (s *Session) Done() <-chan struct{} { return s.done }

// ErrBadTypes marks a malformed type profile (wrong arity or value out
// of range) — a client-request error, distinct from a lifecycle conflict.
var ErrBadTypes = errors.New("service: bad type profile")

// ErrConflict marks a request that is well-formed but illegal in the
// session's current lifecycle state (e.g. submitting types twice).
var ErrConflict = errors.New("service: lifecycle conflict")

// SubmitTypes records the realized type profile and moves the session to
// Queued. Malformed profiles error with ErrBadTypes; submitting to a
// session that already has types is a lifecycle conflict.
func (s *Session) SubmitTypes(types []game.Type) error {
	g := s.params.Game
	if len(types) != g.N {
		return fmt.Errorf("%w: %d types for %d players", ErrBadTypes, len(types), g.N)
	}
	for i, tp := range types {
		if int(tp) < 0 || int(tp) >= g.NumTypes[i] {
			return fmt.Errorf("%w: type %d out of range for player %d", ErrBadTypes, tp, i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateAwaitingTypes {
		return fmt.Errorf("%w: session %s is %s, not %s", ErrConflict, s.ID, s.state, StateAwaitingTypes)
	}
	s.types = append([]game.Type(nil), types...)
	s.state = StateQueued
	return nil
}

// rollback undoes a queued-but-not-submitted transition (pool rejection):
// the one legal backward step in the lifecycle, so the client can
// resubmit its types after backoff.
func (s *Session) rollback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = StateAwaitingTypes
	s.types = nil
}

// begin moves the session to Running and returns its type profile.
func (s *Session) begin() []game.Type {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = StateRunning
	s.started = time.Now()
	return s.types
}

// beginTrace mints the session's play trace — the id is derived from
// the session id and seed, so a replayed farm reproduces it. Disabled
// tracing leaves the nil trace, which every obs method tolerates.
func (s *Session) beginTrace(enabled bool) *obs.PlayTrace {
	if !enabled {
		return nil
	}
	tr := obs.NewPlayTrace(obs.DeriveTraceID(s.ID, strconv.FormatInt(s.seed, 10)), 0)
	s.mu.Lock()
	s.trace = tr
	s.mu.Unlock()
	return tr
}

// setPlacement records the scheduler's assignment for this play.
func (s *Session) setPlacement(pl *api.PlacementView) {
	s.mu.Lock()
	s.placement = pl
	s.mu.Unlock()
}

// tracer returns the session's play trace (nil with tracing off or
// before execution began).
func (s *Session) tracer() *obs.PlayTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace
}

// settle records the play's outcome and returns the terminal view the
// session will show, without turning it terminal yet: observers still see
// it running until release, so the worker can persist and count the play
// first. The play trace — complete by now: the run ended and any peer
// spans are stitched — is compacted to its flat view and the buffer
// released.
func (s *Session) settle(profile game.Profile, res *async.Result, err error) View {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := StateDone
	if err != nil {
		state = StateFailed
		s.err = err
	} else {
		s.profile = profile
		s.res = res
	}
	s.traceV = traceView(s.trace)
	s.trace = nil
	s.finished = time.Now()
	return s.viewLocked(state)
}

// release turns a settled session terminal and closes Done.
func (s *Session) release(state State) {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
	close(s.done)
}

// Snapshot returns a consistent view of the session.
func (s *Session) Snapshot() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(s.state)
}

// viewLocked renders the session as of lifecycle state `state` (the
// current one, or the terminal one a settled session is about to enter).
func (s *Session) viewLocked(state State) View {
	v := View{
		ID:      s.ID,
		State:   state,
		Spec:    s.Spec,
		Seed:    s.seed,
		Variant: s.params.Variant.String(),
		Bound:   s.params.Variant.Bound(s.params.K, s.params.T),
	}
	v.Placement = s.placement
	for _, tp := range s.types {
		v.Types = append(v.Types, int(tp))
	}
	if state == StateDone {
		for _, a := range s.profile {
			v.Profile = append(v.Profile, int(a))
		}
		v.Utilities = s.params.Game.Utility(s.types, s.profile)
		v.Deadlock = s.res.Deadlocked
		v.Steps = s.res.Stats.Steps
		v.MsgsSent = s.res.Stats.MessagesSent
		v.MsgsDeliv = s.res.Stats.MessagesDelivered
	}
	if state.Terminal() {
		if !s.started.IsZero() {
			v.DurationSeconds = s.finished.Sub(s.started).Seconds()
		}
		v.Trace = s.traceV
	}
	if state == StateFailed {
		v.Error = s.err.Error()
	}
	return v
}

// stateNow returns the current state.
func (s *Session) stateNow() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

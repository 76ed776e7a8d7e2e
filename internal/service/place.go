package service

import (
	"errors"
	"net/http"

	"asyncmediator/api"
	"asyncmediator/internal/sched"
)

// This file is the placement control plane's service glue: it feeds the
// pure scheduler (internal/sched) from the gossip fleet view, counts
// its decisions, and serves POST /v1/cluster/plan — the
// dry-run that answers the assignment a session create would get,
// without creating anything.

// placeSession resolves one placement:"auto" request against the live
// fleet view. Any caller-supplied peers stay pinned; the scheduler fills
// the remaining players across healthy daemons. On a daemon without a
// fleet plane the whole play degenerates to the coordinator — a valid
// single-daemon placement, not an error.
func (s *Service) placeSession(spec Spec, n int) (sched.Placement, error) {
	pl, _, err := s.schedulePlacement(spec, n)
	s.notePlacement(err)
	return pl, err
}

// schedulePlacement runs the pure scheduler against the live fleet view
// without tallying the decision — the shared core of placeSession (real
// placements, counted) and handleClusterPlan (dry runs, not counted).
func (s *Service) schedulePlacement(spec Spec, n int) (sched.Placement, []sched.Daemon, error) {
	var cands []sched.Daemon
	if fv, ok := s.FleetView(); ok {
		cands = sched.Candidates(fv)
	}
	pl, err := sched.Place(sched.Request{
		N:          n,
		K:          spec.K,
		T:          spec.T,
		Strategy:   spec.Placement.Strategy,
		Fixed:      spec.Peers,
		MinDaemons: spec.Placement.MinDaemons,
	}, cands)
	return pl, cands, err
}

// notePlacement counts one scheduler decision.
func (s *Service) notePlacement(err error) {
	switch {
	case err == nil:
		s.placements.Inc()
	case errors.Is(err, sched.ErrInfeasible):
		s.placeRejects.With("infeasible").Inc()
	case errors.Is(err, sched.ErrUnderFloor):
		s.placeRejects.With("under_floor").Inc()
	default:
		s.placeRejects.With("error").Inc()
	}
}

// handleClusterPlan answers POST /v1/cluster/plan: validate the spec and
// run the placement scheduler against the current fleet view, exactly as
// POST /v1/sessions would, but create nothing. A plan without an explicit
// placement spec plans as placement:"auto".
func (s *Service) handleClusterPlan(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterPlanRequest
	if e := decodeBody(w, r, &req); e != nil {
		writeAPIError(w, e)
		return
	}
	spec := req.Spec
	if spec.Placement == nil {
		spec.Placement = &api.PlacementSpec{Mode: api.PlacementModeAuto}
	}
	normalizeSpec(&spec)
	params, err := buildParams(spec)
	if err != nil {
		writeAPIError(w, apiError(err, api.CodeInvalidArgument))
		return
	}
	pl, cands, err := s.schedulePlacement(spec, params.Game.N)
	if err != nil {
		writeAPIError(w, apiError(err, api.CodeInvalidArgument))
		return
	}
	writeJSON(w, http.StatusOK, api.ClusterPlanResponse{
		Placement:      pl,
		HealthyDaemons: sched.UsableCount(cands),
	})
}

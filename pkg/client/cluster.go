package client

import (
	"context"
	"net/http"

	"asyncmediator/api"
)

// The cluster calls use deterministic Idempotency-Keys derived from the
// cluster id rather than per-call minted ones: a cluster id names exactly
// one play, so any retry of its join/start/finish — even from a freshly
// restarted coordinator holding a brand-new client — replays the daemon's
// cached response instead of re-executing.

// ClusterJoin invites the daemon to co-host a play: it binds one
// transport listener per named player and answers with their addresses.
// The call is idempotency-keyed, so the built-in retry is safe over
// transport failures.
func (c *Client) ClusterJoin(ctx context.Context, req api.ClusterJoinRequest) (api.ClusterJoinResponse, error) {
	var resp api.ClusterJoinResponse
	err := c.doKeyed(ctx, http.MethodPost, "/v1/cluster/join", nil, "cluster-join-"+req.ClusterID, req, &resp)
	return resp, err
}

// ClusterStart hands the daemon the complete player->address table. It
// blocks while the daemon's local players run and returns their terminal
// outcomes. Also idempotency-keyed: a retried start waits for or replays
// the first completed response rather than re-running the play.
func (c *Client) ClusterStart(ctx context.Context, req api.ClusterStartRequest) (api.ClusterStartResponse, error) {
	var resp api.ClusterStartResponse
	err := c.doKeyed(ctx, http.MethodPost, "/v1/cluster/start", nil, "cluster-start-"+req.ClusterID, req, &resp)
	return resp, err
}

// ClusterFinish releases a lingering play's transports once every
// daemon's outcomes are gathered. Releasing an already-gone play is a
// successful no-op (Released false), so this retries safely.
func (c *Client) ClusterFinish(ctx context.Context, req api.ClusterFinishRequest) (api.ClusterFinishResponse, error) {
	var resp api.ClusterFinishResponse
	err := c.doKeyed(ctx, http.MethodPost, "/v1/cluster/finish", nil, "cluster-finish-"+req.ClusterID, req, &resp)
	return resp, err
}

// ClusterPlan dry-runs the daemon's placement scheduler: the assignment
// a session created with this spec would get against the current fleet
// view, without creating anything. A spec under its theorem's bound
// yields ErrInvalidArgument, a scheduler refusal ErrPlacementInfeasible,
// and a fleet too unhealthy for the requested placement
// ErrFleetUnderFloor.
func (c *Client) ClusterPlan(ctx context.Context, req api.ClusterPlanRequest) (api.ClusterPlanResponse, error) {
	var resp api.ClusterPlanResponse
	err := c.do(ctx, http.MethodPost, "/v1/cluster/plan", nil, req, &resp)
	return resp, err
}

// FleetStatus fetches the daemon's gossip-derived view of the whole
// fleet: per-peer health summaries, liveness judgements, and currently
// firing alerts. Daemons started without -fleet-listen answer not_found.
func (c *Client) FleetStatus(ctx context.Context) (api.FleetView, error) {
	var v api.FleetView
	err := c.do(ctx, http.MethodGet, "/v1/cluster/fleet", nil, nil, &v)
	return v, err
}

// ClusterDrop fires the daemon's fault-injection hook (mediatord
// -chaos): every live cluster transport connection is severed, and the
// reconnect/resend machinery must heal the play. It returns how many
// connections were dropped.
func (c *Client) ClusterDrop(ctx context.Context) (int, error) {
	var out struct {
		Dropped int `json:"dropped"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/cluster/drop", nil, nil, &out)
	return out.Dropped, err
}

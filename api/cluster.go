package api

// Cluster mode: several mediatord daemons co-host one cheap-talk play,
// each running only its local players' protocol stacks over the hardened
// cluster transport. The coordinating daemon (the one that received
// POST /v1/sessions with a non-empty peers list) drives two calls
// against each co-hosting daemon:
//
//  1. POST /v1/cluster/join  — carry the play's spec, types, seed, and
//     the player indices that daemon hosts; it opens one transport per
//     local player on its cluster endpoint (one listener for the whole
//     daemon) and answers with the endpoint's address for each. The
//     coordinator joins all peers in parallel.
//  2. POST /v1/cluster/start — carry the complete player->address
//     table; the daemon runs its local players to termination and the
//     response carries their outcomes.
//
// The coordinator merges the outcomes with its own players', resolves
// the joint action profile exactly as a single-process play would, and
// persists/announces the terminal session on its own store and event
// bus.
//
// Keyed-retry contract: both calls are idempotent. The SDK derives the
// Idempotency-Key deterministically from the cluster id (not from the
// client instance), so even a restarted coordinator process that retries
// a start replays the cached response instead of re-running the play;
// additionally, a repeated start for a play whose outcome is already
// gathered answers the cached ClusterStartResponse rather than conflict.

// PeerSpec assigns one player index of a session to a co-hosting
// daemon, identified by its HTTP base URL (e.g. "http://10.0.0.2:8080").
// Player indices absent from SessionSpec.Peers run on the coordinator.
type PeerSpec struct {
	Index int    `json:"index"`
	Addr  string `json:"addr"`
}

// ClusterJoinRequest is the body of POST /v1/cluster/join: the
// coordinator invites this daemon to co-host one play.
type ClusterJoinRequest struct {
	// ClusterID names the play; every transport handshake of the mesh is
	// scoped to it.
	ClusterID string `json:"cluster_id"`
	// Spec is the play's session spec (peers stripped: assignment travels
	// in Players).
	Spec SessionSpec `json:"spec"`
	// Types is the realized type profile of all n players.
	Types []int `json:"types"`
	// Players are the indices this daemon hosts.
	Players []int `json:"players"`
	// Seed is the session seed. Every node keys its player's private
	// stream from it and the player's index (async.StreamKey), as
	// async.Runtime keys the same party's stream, so a node draws what the
	// simulated party draws. Any daemon given the seed can compute every
	// player's stream.
	Seed int64 `json:"seed"`
	// TraceID is the coordinator's trace id for the play; the daemon's
	// local spans are recorded under it and travel back in the start
	// response, so the coordinator stitches one cross-process timeline.
	// Empty when the coordinator runs without tracing.
	TraceID string `json:"trace_id,omitempty"`
}

// ClusterJoinResponse acknowledges a join. Addrs is indexed by player:
// each player this daemon hosts maps to the address of the daemon's one
// cluster endpoint (the same address for all of them), and players
// hosted elsewhere have empty entries.
type ClusterJoinResponse struct {
	ClusterID string   `json:"cluster_id"`
	Addrs     []string `json:"addrs"`
}

// ClusterStartRequest is the body of POST /v1/cluster/start: the
// complete player->transport-address table, gathered from every join.
type ClusterStartRequest struct {
	ClusterID string   `json:"cluster_id"`
	Addrs     []string `json:"addrs"`
}

// ClusterPlayerResult is one co-hosted player's terminal state. Move and
// Will are opaque payloads in the wire mesh's binary codec (the same
// encoding its protocol messages use), so any move type the codec knows
// crosses the HTTP boundary without widening the JSON contract.
type ClusterPlayerResult struct {
	Index  int    `json:"index"`
	Move   []byte `json:"move,omitempty"`
	Will   []byte `json:"will,omitempty"`
	Halted bool   `json:"halted"`
	// TimedOut marks a player whose node hit the hosting daemon's wire
	// timeout — the cross-process analogue of a deadlocked play.
	TimedOut bool `json:"timed_out,omitempty"`
	// Sent/Delivered are the node's transport counters.
	Sent      int64  `json:"sent"`
	Delivered int64  `json:"delivered"`
	Error     string `json:"error,omitempty"`
}

// ClusterStartResponse carries every local player's outcome back to the
// coordinator.
type ClusterStartResponse struct {
	ClusterID string                `json:"cluster_id"`
	Results   []ClusterPlayerResult `json:"results"`
	// Trace carries this daemon's spans for the play (recorded under the
	// join's trace id); the coordinator merges them into the session's
	// stitched trace. Omitted when the join carried no trace id.
	Trace *TraceView `json:"trace,omitempty"`
}

// ClusterFinishRequest is the body of POST /v1/cluster/finish: the
// coordinator, having gathered every daemon's outcomes, releases the
// play's transports. Until this call (or a linger timeout) a co-hosting
// daemon keeps its finished players' transports alive, because their
// resend buffers may still hold frames a slower daemon's players need.
type ClusterFinishRequest struct {
	ClusterID string `json:"cluster_id"`
}

// ClusterFinishResponse acknowledges a release. Released is false when
// the play was already gone (an earlier finish, the linger reaper, or a
// daemon restart) — a successful no-op, so finishes retry safely.
type ClusterFinishResponse struct {
	ClusterID string `json:"cluster_id"`
	Released  bool   `json:"released"`
}

// Package api is the versioned wire contract of the mediatord session
// farm: every request, response, event, and error body the HTTP surface
// serves under /v1 is defined here, and nowhere else. The package is a
// pure contract — plain structs with JSON tags, no imports from the
// farm's internals — so external clients (pkg/client, cmd/mediatorctl,
// other daemons) can depend on it without pulling in the serving stack,
// the same way the paper's (k,t)-robust construction composes only
// because each phase exposes a precise interface.
//
// Versioning. Routes are mounted under the Prefix ("/v1"). Additive
// changes (new optional fields, new endpoints) do not bump the version;
// renames, removals, and semantic changes do. The pre-/v1 unversioned
// aliases were removed after their one-release deprecation window; only
// the infrastructure probes (/metrics, /healthz, /readyz) remain
// unversioned. Retiring automatic placement and the fleet gossip plane
// removed two endpoints (POST /v1/cluster/plan, GET /v1/cluster/fleet),
// the ?fleet=1 trace fan-out, the SessionSpec/SessionView "placement"
// field and two error codes (placement_infeasible, fleet_under_floor)
// without a version bump: no workload used them, and a spec that still
// names "placement" fails strict decoding as invalid_argument.
//
// Errors. Every non-2xx response carries an ErrorEnvelope with a stable
// machine-readable Code (see ErrorCode); Message is human-oriented and
// may change between releases, Details carries optional structured
// context.
package api

// Version is the contract major version this package describes.
const Version = 1

// Prefix is the URL prefix all versioned routes are mounted under.
const Prefix = "/v1"

// RequestIDHeader carries the request id. Inbound values are propagated;
// absent ones are injected by the server. The id is echoed on every
// response and logged with the request, so one id follows a call through
// client, daemon, and log.
const RequestIDHeader = "X-Request-Id"

// IdempotencyKeyHeader lets a client retry a POST safely over transport
// failures: the server caches the first completed response under the
// key (scoped to method + path) and replays it verbatim — with an
// IdempotencyReplayedHeader marker — for every repeat. Keys should be
// unique per logical operation (the SDK mints one per call).
const IdempotencyKeyHeader = "Idempotency-Key"

// IdempotencyReplayedHeader is set ("true") on responses served from
// the idempotency cache rather than freshly executed.
const IdempotencyReplayedHeader = "Idempotency-Replayed"

// MaxBodyBytes bounds every request body the /v1 surface accepts; larger
// bodies are rejected with CodeInvalidArgument.
const MaxBodyBytes = 1 << 20

// MaxWaitSeconds caps the ?wait= long-poll hold on snapshot endpoints;
// longer requests are silently clamped, so a client may simply re-issue.
const MaxWaitSeconds = 60

// MaxPageLimit caps the ?limit= of collection listings.
const MaxPageLimit = 1000

// DefaultPageLimit applies when a listing names no ?limit=.
const DefaultPageLimit = 50

// Handle acknowledges a create or submit: the subject's id and the
// lifecycle state it entered. Seed is set for sessions (the play's
// deterministic seed), zero for experiment jobs.
type Handle struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Seed  int64  `json:"seed,omitempty"`
}

// Health is the body of GET /healthz (liveness: the process is up).
type Health struct {
	Status string `json:"status"`
}

// Readiness is the body of GET /readyz. Ready is true only between the
// end of store recovery (the daemon replayed its WAL and the worker pool
// accepts submits) and the beginning of shutdown — the window a load
// balancer may route traffic into. Reason explains a false.
type Readiness struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// PageInfo is the envelope every collection listing carries: the total
// match count plus the window served. Pagination is cursor-style over a
// stable sort order (ids ascend): NextOffset, when present, is the
// cursor of the following page; its absence marks the last page.
type PageInfo struct {
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	// NextOffset is the offset cursor of the next page (omitted on the
	// last page).
	NextOffset *int `json:"next_offset,omitempty"`
}

// NewPageInfo builds the envelope for a page of `served` items starting
// at `offset` out of `total` matches.
func NewPageInfo(total, offset, limit, served int) PageInfo {
	p := PageInfo{Total: total, Offset: offset, Limit: limit}
	if next := offset + served; served > 0 && next < total {
		p.NextOffset = &next
	}
	return p
}

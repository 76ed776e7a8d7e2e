package api

import (
	"fmt"
	"strings"
)

// Route documents one endpoint of the /v1 surface. The table below is
// the source the server mounts from and the README's API reference is
// generated from, so documentation cannot drift from the contract.
type Route struct {
	Method string
	// Path is relative to Prefix ("" means the route is unversioned
	// infrastructure: health, readiness, metrics).
	Path string
	// Summary is the one-line behaviour description.
	Summary string
	// Query documents the recognised query parameters ("" for none).
	Query string
	// Unversioned marks infrastructure routes mounted outside Prefix.
	Unversioned bool
}

// Routes lists the full /v1 surface in presentation order.
func Routes() []Route {
	return []Route{
		{Method: "POST", Path: "/sessions", Summary: "create a session awaiting its type profile (body: SessionSpec)"},
		{Method: "GET", Path: "/sessions", Summary: "page the session collection across memory and store", Query: "state, offset, limit"},
		{Method: "GET", Path: "/sessions/{id}", Summary: "session snapshot; ?wait= long-polls until terminal", Query: "wait"},
		{Method: "POST", Path: "/sessions/{id}/types", Summary: "submit the realized type profile and queue the play (body: TypesRequest)"},
		{Method: "GET", Path: "/sessions/{id}/trace", Summary: "the terminal play's stitched trace: per-phase spans across every co-hosting daemon (TraceView)"},
		{Method: "GET", Path: "/events", Summary: "server-sent event stream of state transitions", Query: "session, kind"},
		{Method: "GET", Path: "/experiments", Summary: "catalog of the paper's experiments (e1..e8)"},
		{Method: "GET", Path: "/experiments/{name}", Summary: "run a catalog experiment synchronously in the request, returning its Table", Query: "trials, seed, maxsteps"},
		{Method: "POST", Path: "/jobs", Summary: "create a persisted asynchronous experiment job (body: ExperimentRequest)"},
		{Method: "GET", Path: "/jobs/{id}", Summary: "experiment-job snapshot; ?wait= long-polls until terminal", Query: "wait"},
		{Method: "POST", Path: "/cluster/join", Summary: "co-host a play: open the named players' transports on the daemon's cluster endpoint (body: ClusterJoinRequest)"},
		{Method: "POST", Path: "/cluster/start", Summary: "run the co-hosted players to termination with the full address table and answer their outcomes (body: ClusterStartRequest)"},
		{Method: "POST", Path: "/cluster/finish", Summary: "release a finished play's lingering transports once the coordinator gathered every outcome (body: ClusterFinishRequest)"},
		{Method: "POST", Path: "/cluster/plan", Summary: "dry-run the placement scheduler against the live fleet view: validate the spec and answer the daemon assignment without creating anything (body: ClusterPlanRequest)"},
		{Method: "GET", Path: "/cluster/fleet", Summary: "this daemon's gossip-derived view of the whole fleet: per-peer health, liveness judgements, firing alerts (FleetView)"},
		{Method: "GET", Path: "/traces", Summary: "search retained finished-play traces, newest first with cursor pagination; ?fleet=1 fans the query out to every healthy gossiped peer and merges the pages peer-attributed (TracePage)", Query: "variant, phase, min_ms, since, cursor, limit, fleet"},
		{Method: "GET", Path: "/slo", Summary: "rolling multi-window burn-rate state of every configured SLO objective, exemplar traces included (SLOView)"},
		{Method: "GET", Path: "/stats", Summary: "farm-wide aggregate statistics (Stats)"},
		{Method: "GET", Path: "/metrics", Summary: "Prometheus text exposition", Unversioned: true},
		{Method: "GET", Path: "/healthz", Summary: "liveness: the process is up", Unversioned: true},
		{Method: "GET", Path: "/readyz", Summary: "readiness: store recovered, pool accepting, not draining, queue under the shed watermark", Unversioned: true},
	}
}

// errorCodeDocs maps each code to its reference line.
var errorCodeDocs = []struct {
	Code ErrorCode
	Doc  string
}{
	{CodeInvalidArgument, "malformed request: bad JSON, unknown fields, out-of-range parameters, body over 1 MiB"},
	{CodeNotFound, "no session, job, or experiment with that id or name"},
	{CodeConflict, "request is illegal in the subject's current lifecycle state (e.g. types submitted twice)"},
	{CodePoolSaturated, "worker queue full; the request had no effect — back off and retry"},
	{CodeNotReady, "daemon booting (store recovery) or draining for shutdown"},
	{CodeInternal, "unexpected server fault (recovered panic)"},
	{CodePlacementInfeasible, "the placement scheduler refused the spec itself: n under its theorem variant's floor, unknown strategy, or contradictory pinned peers (the farm runs the same checks at create time and answers those with invalid_argument first)"},
	{CodeFleetUnderFloor, "the fleet cannot place this right now: too few healthy daemons for min_daemons, or a strict placement's fault budget is unattainable — retry when the fleet recovers"},
}

// Reference renders the /v1 API reference as markdown. The README embeds
// this output verbatim (between v1-api markers); a test keeps the two in
// sync, so the published reference is generated, not hand-maintained.
func Reference() string {
	var b strings.Builder
	fmt.Fprintf(&b, "All versioned routes live under `%s`. Every non-2xx response is an\n", Prefix)
	b.WriteString("error envelope `{\"error\": {\"code\", \"message\", \"details\"}}` with a stable\n")
	b.WriteString("machine-readable `code`. Request ids (`X-Request-Id`) are propagated or\n")
	b.WriteString("injected and echoed on every response.\n\n")

	b.WriteString("| route | query | behaviour |\n|---|---|---|\n")
	for _, r := range Routes() {
		path := r.Path
		if !r.Unversioned {
			path = Prefix + r.Path
		}
		q := r.Query
		if q == "" {
			q = "—"
		}
		fmt.Fprintf(&b, "| `%s %s` | %s | %s |\n", r.Method, path, q, r.Summary)
	}

	b.WriteString("\n**Error codes.**\n\n| code | meaning (HTTP) |\n|---|---|\n")
	for _, d := range errorCodeDocs {
		fmt.Fprintf(&b, "| `%s` | %s (%d) |\n", d.Code, d.Doc, d.Code.HTTPStatus())
	}

	b.WriteString("\n**Pagination.** Collection listings accept `offset` and `limit`\n")
	fmt.Fprintf(&b, "(default %d, max %d) and return `{total, offset, limit, next_offset,\n", DefaultPageLimit, MaxPageLimit)
	b.WriteString("items...}` over a stable id-ascending order; `next_offset` is the cursor\n")
	b.WriteString("of the following page and is omitted on the last page. An `offset`\n")
	b.WriteString("beyond `total` yields an empty page, not an error; `limit=0` is\n")
	b.WriteString("rejected as `invalid_argument`.\n")

	b.WriteString("\n**Long-poll.** Snapshot endpoints accept `?wait=` (a Go duration,\n")
	fmt.Fprintf(&b, "capped at %ds): the response is held until the subject reaches a\n", MaxWaitSeconds)
	b.WriteString("terminal state, the wait elapses, or the daemon begins draining.\n")

	b.WriteString("\n**Idempotency.** POSTs may carry an `Idempotency-Key` header: the\n")
	b.WriteString("first completed response is cached under the key (scoped to method +\n")
	b.WriteString("path) and replayed verbatim — flagged `Idempotency-Replayed: true` —\n")
	b.WriteString("for every repeat, so creates retry safely over transport failures.\n")
	b.WriteString("Transient failures (`pool_saturated`, `not_ready`,\n")
	b.WriteString("`fleet_under_floor`) are not cached. The SDK mints a key per POST\n")
	b.WriteString("automatically. Keyed create responses persist with the durable store,\n")
	b.WriteString("so a retried create replays across a daemon restart; cluster join and\n")
	b.WriteString("start keys are derived from the cluster id, so even a restarted\n")
	b.WriteString("coordinator's retry replays instead of re-running the play.\n")

	b.WriteString("\n**Placement.** A session spec may carry `\"placement\": \"auto\"` (or\n")
	b.WriteString("the object form with `strategy` and `min_daemons`): the receiving\n")
	b.WriteString("daemon consults its gossip fleet view, filters suspect/expired/shedding\n")
	b.WriteString("peers, and spreads the players across healthy daemons least-loaded\n")
	b.WriteString("first, deterministically (ties break on the sorted daemon URL). Specs\n")
	b.WriteString("under their theorem variant's floor (n > 4k+4t, 3k+3t, 3k+4t or\n")
	b.WriteString("2k+3t for 4.1, 4.2, 4.4 or 4.5) are rejected as `invalid_argument`\n")
	b.WriteString("before any placement; fleets too unhealthy for the requested\n")
	b.WriteString("placement answer `fleet_under_floor`. `POST /v1/cluster/plan` dry-runs\n")
	b.WriteString("the same decision; the chosen assignment rides the SessionView as\n")
	b.WriteString("`placement`.\n")

	b.WriteString("\nThe pre-/v1 unversioned aliases were removed after their one-release\n")
	b.WriteString("deprecation window; only the infrastructure probes (`/metrics`,\n")
	b.WriteString("`/healthz`, `/readyz`) remain unversioned.\n")
	return b.String()
}

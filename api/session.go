package api

// SessionSpec is the body of POST /v1/sessions: the client-facing
// configuration of one hosted cheap-talk play. Zero values select the
// farm's default serving configuration (the n > 4t asynchronous variant
// of Theorem 4.1 on the Section 6.4 game).
type SessionSpec struct {
	// Game selects the hosted workload: "section64" (default) or
	// "consensus".
	Game string `json:"game,omitempty"`
	// N, K, T are the paper's bounds; zero N defaults to 5, and zero K
	// with zero T defaults to the service-free k=0, t=1 configuration.
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`
	T int `json:"t,omitempty"`
	// Variant is the theorem label: "4.1" (default), "4.2", "4.4", "4.5".
	Variant string `json:"variant,omitempty"`
	// Scheduler picks the simulation environment strategy: "roundrobin"
	// (default), "random" or "fifo". Ignored by the wire backend, where
	// the real network schedules.
	Scheduler string `json:"scheduler,omitempty"`
	// Backend is "sim" (default: deterministic in-process runtime) or
	// "wire" (loopback TCP mesh of real nodes).
	Backend string `json:"backend,omitempty"`
	// Seed fixes the session's randomness; nil derives a deterministic
	// seed from the session id, so a farm replay reproduces every play.
	// All 64 bits key the play's streams (async.StreamKey), so every seed
	// is a distinct play.
	Seed *int64 `json:"seed,omitempty"`
	// MaxSteps bounds the simulated run (livelock guard).
	MaxSteps int `json:"max_steps,omitempty"`
	// Peers assigns player indices to co-hosting mediatord daemons
	// (cluster mode): each named index runs on the daemon at that HTTP
	// base URL; unnamed indices run on the daemon that received the
	// create. Requires (and implies) the wire backend.
	Peers []PeerSpec `json:"peers,omitempty"`
}

// TypesRequest is the body of POST /v1/sessions/{id}/types: the realized
// type profile, one type index per player.
type TypesRequest struct {
	Types []int `json:"types"`
}

// SessionView is a snapshot of one hosted play — the body of GET
// /v1/sessions/{id} and the element type of session pages and terminal
// session events.
type SessionView struct {
	ID      string      `json:"id"`
	State   State       `json:"state"`
	Spec    SessionSpec `json:"spec"`
	Seed    int64       `json:"seed"`
	Variant string      `json:"variant_theorem"`
	// Bound is the theorem's required n for the spec's (k, t).
	Bound     int       `json:"bound_n"`
	Types     []int     `json:"types,omitempty"`
	Profile   []int     `json:"profile,omitempty"`
	Utilities []float64 `json:"utilities,omitempty"`
	Deadlock  bool      `json:"deadlocked,omitempty"`
	Steps     int       `json:"steps,omitempty"`
	MsgsSent  int       `json:"messages_sent,omitempty"`
	MsgsDeliv int       `json:"messages_delivered,omitempty"`
	// DurationSeconds is the wall time the play ran (terminal states only).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Error           string  `json:"error,omitempty"`
	// Trace is the play's stitched trace (terminal states only; also
	// served alone at GET /v1/sessions/{id}/trace). List pages omit it.
	Trace *TraceView `json:"trace,omitempty"`
}

// SessionPage is the body of GET /v1/sessions: one window of the
// id-sorted session collection across memory and store.
type SessionPage struct {
	PageInfo
	Sessions []SessionView `json:"sessions"`
}

package api

// TraceSummary is one retained trace in a GET /v1/traces result page:
// the searchable digest of a finished play's trace, small enough to
// list thousands of. The full span timeline stays one call away via
// GET /v1/sessions/{session}/trace.
type TraceSummary struct {
	// Session is the session (or cluster) id the trace belongs to.
	Session string `json:"session"`
	// TraceID is the play's stable trace id.
	TraceID string `json:"trace_id"`
	// Variant is the theorem variant the play ran under ("4.1", "4.2").
	Variant string `json:"variant,omitempty"`
	// State is the session's terminal state ("done", "failed").
	State string `json:"state,omitempty"`
	// DurationMS is the play's end-to-end wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// FinishedUnixMS is when the play finished (unix milliseconds).
	FinishedUnixMS int64 `json:"finished_unix_ms"`
	// PhaseMS maps protocol phase name -> total milliseconds spent in
	// that phase (folded across the trace's spans).
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
	// Spans is how many spans the retained trace holds.
	Spans int `json:"spans,omitempty"`
}

// TracePage is the body of GET /v1/traces: retained trace summaries,
// newest first, cursor-paginated.
type TracePage struct {
	// Traces is the result page.
	Traces []TraceSummary `json:"traces"`
	// Total counts every retained trace matching the filter (across all
	// pages).
	Total int `json:"total"`
	// NextCursor, when nonzero, fetches the next (older) page via
	// ?cursor=.
	NextCursor int64 `json:"next_cursor,omitempty"`
}

// SLOObjectiveView is one objective's rolling state in GET /v1/slo.
type SLOObjectiveView struct {
	// Objective is the canonical objective spec, e.g. "phase:ba:p99:250ms".
	Objective string `json:"objective"`
	// Kind is the sample stream the objective watches: "variant" or
	// "phase".
	Kind string `json:"kind"`
	// Selector picks the stream instance (a variant name or phase name).
	Selector string `json:"selector"`
	// Quantile is the objective's target quantile (0.99 for p99).
	Quantile float64 `json:"quantile"`
	// ThresholdMS is the latency threshold in milliseconds.
	ThresholdMS float64 `json:"threshold_ms"`
	// ShortBurn/LongBurn are the burn rates over the short and long
	// rolling windows: the fraction of samples over threshold divided by
	// the error budget (1 − quantile). 1.0 means burning exactly the
	// budget; the alert fires when both windows exceed it.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	// Firing reports whether alert.slo_burn is currently active.
	Firing bool `json:"firing,omitempty"`
	// ExemplarTrace/ExemplarSession name the most recent over-threshold
	// sample's retained trace, linking the alert to a concrete slow play.
	ExemplarTrace   string `json:"exemplar_trace,omitempty"`
	ExemplarSession string `json:"exemplar_session,omitempty"`
	// Samples counts every sample the objective has folded since boot.
	Samples int64 `json:"samples"`
}

// SLOView is the body of GET /v1/slo.
type SLOView struct {
	// IntervalMS is the engine's evaluation tick in milliseconds.
	IntervalMS int64 `json:"interval_ms"`
	// ShortWindow/LongWindow are the rolling window lengths in ticks.
	ShortWindow int `json:"short_window"`
	LongWindow  int `json:"long_window"`
	// Objectives lists every configured objective's rolling state.
	Objectives []SLOObjectiveView `json:"objectives"`
}

// ProfileInfo is one captured profile on the daemon's on-disk ring,
// listed by GET /profiles on the private pprof listener.
type ProfileInfo struct {
	// Name is the file name, fetchable via GET /profiles/{name}.
	Name string `json:"name"`
	// Kind is the profile type: "cpu" or "heap".
	Kind string `json:"kind"`
	// SizeBytes is the encoded profile's size.
	SizeBytes int64 `json:"size_bytes"`
	// CreatedUnixMS is the capture time (unix milliseconds).
	CreatedUnixMS int64 `json:"created_unix_ms"`
}

// ProfileList is the body of GET /profiles on the pprof listener.
type ProfileList struct {
	// Dir is the on-disk ring directory.
	Dir string `json:"dir"`
	// IntervalMS is the capture period in milliseconds.
	IntervalMS int64 `json:"interval_ms"`
	// Profiles lists captures newest first.
	Profiles []ProfileInfo `json:"profiles"`
}

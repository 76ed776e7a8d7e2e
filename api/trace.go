package api

// TraceSpan is one named interval on a play's stitched timeline — a
// protocol phase (AVSS dealings, openings, BA) or an explicit stage (the
// run itself, the scheduler lane). Offsets are
// microseconds on the recording origin's monotonic clock: spans order
// exactly within an origin, approximately across origins.
type TraceSpan struct {
	// Name is the phase ("avss", "open" or "ba", each protocol message
	// classified by its body) or the stage ("run", "sched").
	Name string `json:"name"`
	// Origin is where the span was recorded: "local" for the serving
	// daemon, or the co-hosting peer's base URL after stitching.
	Origin string `json:"origin,omitempty"`
	// StartUS/EndUS bracket the span in microseconds since the origin's
	// trace began.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Count is how many observations (typically delivered protocol
	// messages) the span aggregates.
	Count int64 `json:"count"`
	// Attrs carries span attributes, e.g. "cpu_ms" on the run span (the
	// per-play CPU-delta sample).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// TraceView is the body of GET /v1/sessions/{id}/trace: one play's
// end-to-end trace. For a cluster play the coordinator stitches every
// co-hosting daemon's spans under the shared trace id, so the timeline
// spans processes.
type TraceView struct {
	// TraceID is the play's stable trace id, shared by every daemon that
	// co-hosted it (it travels in the cluster join request).
	TraceID string `json:"trace_id"`
	// Spans is the stitched span list, ordered by origin then start.
	Spans []TraceSpan `json:"spans"`
	// Dropped counts spans discarded by the bounded trace buffer.
	Dropped int64 `json:"dropped,omitempty"`
}

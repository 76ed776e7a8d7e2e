package api

// DurationStats summarizes one theorem variant's session-duration
// histogram — the same histogram /metrics exposes as
// mediatord_session_duration_seconds{variant=...}. Sum and Buckets are
// that histogram's raw state for in-process readers, not part of the
// JSON contract.
type DurationStats struct {
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	// Sum is the total observed seconds (Prometheus histogram _sum).
	Sum float64 `json:"-"`
	// Buckets are the per-bucket (non-cumulative) counts aligned with the
	// server's histogram boundaries, plus a trailing overflow bucket.
	Buckets []int64 `json:"-"`
}

// StatsTotals are the farm's aggregate play counters.
type StatsTotals struct {
	Sessions          int64            `json:"sessions_completed"`
	Failed            int64            `json:"sessions_failed"`
	Deadlocked        int64            `json:"sessions_deadlocked"`
	Steps             int64            `json:"steps"`
	MessagesSent      int64            `json:"messages_sent"`
	MessagesDelivered int64            `json:"messages_delivered"`
	Outcomes          map[string]int64 `json:"outcomes,omitempty"`
	// Durations maps theorem variant -> session-duration summary (p50/p99).
	Durations map[string]DurationStats `json:"session_duration_by_variant,omitempty"`
}

// Stats is the farm-level aggregate — the body of GET /v1/stats.
//
// Terminal implies persisted implies counted: a session is persisted to
// the durable store (when there is one) and counted here before it turns
// done or failed. A client that has seen a session's terminal state by
// any route (long-poll, GET, SSE) therefore finds it in sessions_completed,
// outcomes and session_duration_by_variant on its next read. /metrics
// renders the same counters, so the two surfaces cannot disagree.
type Stats struct {
	StatsTotals
	SessionsCreated   int           `json:"sessions_created"`
	SessionsLive      int           `json:"sessions_live"`
	SessionsEvicted   int64         `json:"sessions_evicted"`
	SessionsPersisted int           `json:"sessions_persisted,omitempty"`
	PersistErrors     int64         `json:"persist_errors,omitempty"`
	States            map[State]int `json:"states"`
	Workers           int           `json:"workers"`
	UptimeSeconds     float64       `json:"uptime_seconds"`
	SessionsPerSec    float64       `json:"sessions_per_sec"`
	MessagesPerSec    float64       `json:"messages_per_sec"`
	// QueueDepth is the number of jobs currently queued behind the
	// workers — the load-shedding readiness gate's input.
	QueueDepth int `json:"queue_depth"`
	// ShedIntervals counts transitions into load-shedding: windows in
	// which GET /readyz reported not-ready because QueueDepth sat at or
	// above the configured watermark.
	ShedIntervals int64 `json:"shed_intervals,omitempty"`
	// ClusterPlaysHosted counts plays this daemon co-hosted for a remote
	// coordinator (cluster mode joins that reached start).
	ClusterPlaysHosted int64 `json:"cluster_plays_hosted,omitempty"`
	// Cluster aggregates the cluster transport's link counters across
	// live and finished plays (nil when the daemon never clustered).
	Cluster *ClusterLinkStats `json:"cluster,omitempty"`
	// Pool is the worker pool's instantaneous load summary.
	Pool *PoolStats `json:"pool,omitempty"`
	// Store summarizes the durable store (nil on a memory-only farm).
	Store *StoreStats `json:"store,omitempty"`
}

// ClusterLinkStats aggregates the cluster transport's per-link counters
// (every live node's links plus totals retired when nodes closed). Sent
// and Delivered count payloads between players; a player's messages to
// itself never reach a link.
type ClusterLinkStats struct {
	Sent       int64 `json:"sent"`
	Delivered  int64 `json:"delivered"`
	Resent     int64 `json:"resent"`
	Duplicates int64 `json:"duplicates"`
	// Redials counts reconnects after an established link dropped.
	Redials    int64 `json:"redials"`
	DialErrors int64 `json:"dial_errors"`
	Acks       int64 `json:"acks"`
	Rejected   int64 `json:"rejected"`
	FramesIn   int64 `json:"frames_in"`
	FramesOut  int64 `json:"frames_out"`
	BytesIn    int64 `json:"bytes_in"`
	BytesOut   int64 `json:"bytes_out"`
	// QueueLen and ResendBuffered are instantaneous depths summed over
	// live links (unsent frames queued; sent frames awaiting ack).
	QueueLen       int `json:"queue_len"`
	ResendBuffered int `json:"resend_buffered"`
}

// PoolStats is the worker pool's load summary.
type PoolStats struct {
	Workers       int   `json:"workers"`
	ActiveWorkers int   `json:"active_workers"`
	QueueLen      int   `json:"queue_len"`
	Completed     int64 `json:"jobs_completed"`
	// Shed counts TrySubmit rejections (queue full).
	Shed int64 `json:"jobs_shed"`
	// QueueWaitSeconds is the cumulative time jobs spent queued before a
	// worker picked them up.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
}

// StoreStats summarizes the durable store.
type StoreStats struct {
	// WALAppends counts records appended to the write-ahead log.
	WALAppends int64 `json:"wal_appends"`
	// Compactions counts snapshot rewrites.
	Compactions int64 `json:"compactions"`
	// Keys is the live record count.
	Keys int `json:"keys"`
	// ReplaySeconds is how long the last open spent recovering state.
	ReplaySeconds float64 `json:"replay_seconds"`
}

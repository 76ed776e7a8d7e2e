package service

import (
	"runtime"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/cluster"
	"asyncmediator/internal/obs"
	"asyncmediator/internal/pool"
	"asyncmediator/internal/store"
)

// This file is the farm's metrics glue: every series the daemon exposes
// is registered here (or by the plane that owns it, at boot) on the one
// obs registry. GET /metrics renders that registry; GET /v1/stats
// assembles its DTOs from the same objects, so the two cannot disagree.

// playStats is the farm's per-play accounting. exec counts every terminal
// play here exactly once, before the session turns terminal for any
// observer.
type playStats struct {
	sessions, failed, deadlocked *obs.Counter
	steps, sent, delivered       *obs.Counter
	outcomes                     *obs.CounterVec   // by outcome-profile key
	durations                    *obs.HistogramVec // running wall time by theorem variant
}

// durBounds are the session-duration bucket upper bounds in seconds
// (exponential, ms to minute scale — a hosted play is milliseconds in the
// simulator and can reach seconds on the wire backend).
var durBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// totals renders the accounting as the /v1/stats wire shape.
func (p *playStats) totals() api.StatsTotals {
	t := api.StatsTotals{
		Sessions:          p.sessions.Value(),
		Failed:            p.failed.Value(),
		Deadlocked:        p.deadlocked.Value(),
		Steps:             p.steps.Value(),
		MessagesSent:      p.sent.Value(),
		MessagesDelivered: p.delivered.Value(),
		Outcomes:          p.outcomes.Values(),
		Durations:         make(map[string]api.DurationStats),
	}
	for variant, h := range p.durations.Snapshots() {
		ds := api.DurationStats{
			Count:      h.Count,
			Sum:        h.Sum,
			P50Seconds: h.Quantile(0.50),
			P99Seconds: h.Quantile(0.99),
			Buckets:    h.Counts,
		}
		if h.Count > 0 {
			ds.MeanSeconds = h.Sum / float64(h.Count)
		}
		t.Durations[variant] = ds
	}
	return t
}

// addClusterCounters folds a transport snapshot's monotonic counters into
// dst. The instantaneous depths (QueueLen, ResendBuffered) are excluded:
// they only make sense summed over live links, never accumulated.
func addClusterCounters(dst *api.ClusterLinkStats, st cluster.Stats) {
	dst.Sent += st.Sent
	dst.Delivered += st.Delivered
	dst.Resent += st.Resent
	dst.Duplicates += st.Duplicates
	dst.Redials += st.Reconnects
	dst.DialErrors += st.DialErrors
	dst.Acks += st.Acks
	dst.Rejected += st.Rejected
	dst.FramesIn += st.FramesIn
	dst.FramesOut += st.FramesOut
	dst.BytesIn += st.BytesIn
	dst.BytesOut += st.BytesOut
}

// clusterLinkStats sums the cluster transport counters of every play
// the daemon's endpoint has carried; depths come from live links only.
func (s *Service) clusterLinkStats() api.ClusterLinkStats {
	st := s.clusterEP.Stats()
	var out api.ClusterLinkStats
	addClusterCounters(&out, st)
	out.QueueLen = st.QueueLen
	out.ResendBuffered = st.ResendBuffered
	return out
}

// poolStats converts a pool snapshot to its wire shape.
func poolStats(p *pool.Pool) api.PoolStats {
	st := p.Stats()
	return api.PoolStats{
		Workers:          st.Workers,
		ActiveWorkers:    st.Active,
		QueueLen:         st.QueueLen,
		Completed:        st.Completed,
		Shed:             st.Shed,
		QueueWaitSeconds: st.QueueWait.Seconds(),
	}
}

// storeStats converts a store snapshot to its wire shape.
func storeStats(st *store.Store) api.StoreStats {
	m := st.Metrics()
	return api.StoreStats{
		WALAppends:    m.WALAppends,
		Compactions:   m.Compactions,
		Keys:          m.Keys,
		ReplaySeconds: m.ReplayTime.Seconds(),
	}
}

// registerObsMetrics registers the farm's series on its metric registry:
// the per-play accounting and the farm's own counters as obs objects,
// everything owned by another subsystem (registry, pool, store, cluster
// links) as pull-time funcs reading that subsystem's state at the scrape.
func (s *Service) registerObsMetrics() {
	r := s.obsReg

	s.plays = playStats{
		sessions:   r.Counter("mediatord_sessions_completed_total", "Sessions that reached a terminal state."),
		failed:     r.Counter("mediatord_sessions_failed_total", "Sessions that ended in failure."),
		deadlocked: r.Counter("mediatord_sessions_deadlocked_total", "Sessions whose play deadlocked."),
		steps:      r.Counter("mediatord_steps_total", "Simulation steps executed across all plays."),
		sent:       r.Counter("mediatord_messages_sent_total", "Protocol messages sent across all plays."),
		delivered:  r.Counter("mediatord_messages_delivered_total", "Protocol messages delivered across all plays."),
		outcomes: r.CounterVec("mediatord_session_outcomes_total",
			"Completed plays by outcome profile.", "profile"),
		durations: r.HistogramVec("mediatord_session_duration_seconds",
			"Session running wall time by theorem variant.", "variant", durBounds),
	}
	r.CounterFunc("mediatord_sessions_created_total", "Sessions ever created (including recovered).",
		func() float64 { return float64(s.reg.Created()) })
	r.CounterFunc("mediatord_sessions_evicted_total", "Terminal sessions evicted from the in-memory cache.",
		func() float64 { return float64(s.reg.Evicted()) })
	s.persistErrs = r.Counter("mediatord_persist_errors_total", "Failed writes to the durable store.")
	s.shedIntervals = r.Counter("mediatord_shed_intervals_total",
		"Entries into load-shedding readiness (queue at or above the watermark).")
	s.clusterHosted = r.Counter("mediatord_cluster_plays_hosted_total",
		"Plays co-hosted for remote coordinators (cluster mode).")
	r.GaugeFunc("mediatord_sessions_live", "Sessions currently held in memory.",
		func() float64 { return float64(s.reg.Len()) })
	r.GaugeFunc("mediatord_sessions_persisted", "Session records in the durable store.",
		func() float64 {
			if s.st == nil {
				return 0
			}
			return float64(s.st.Count(sessionKeyPrefix))
		})
	r.GaugeFunc("mediatord_uptime_seconds", "Seconds since the farm started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeVecFunc("mediatord_sessions_in_state", "Sessions per lifecycle state (in-memory).", "state",
		func() map[string]float64 {
			counts := s.reg.StateCounts()
			out := make(map[string]float64, 5)
			for _, st := range []State{StateAwaitingTypes, StateQueued, StateRunning, StateDone, StateFailed} {
				out[string(st)] = float64(counts[st])
			}
			return out
		})

	// Cluster transport links (every play the endpoint has carried).
	clusterCounter := func(name, help string, get func(api.ClusterLinkStats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(get(s.clusterLinkStats())) })
	}
	clusterCounter("mediatord_cluster_link_sent_total",
		"Payloads accepted by cluster transports for sending to a peer (self-addressed payloads never reach a link).",
		func(c api.ClusterLinkStats) int64 { return c.Sent })
	clusterCounter("mediatord_cluster_link_delivered_total",
		"Frames delivered exactly once to cluster inboxes.",
		func(c api.ClusterLinkStats) int64 { return c.Delivered })
	clusterCounter("mediatord_cluster_link_resends_total",
		"Frames replayed from resend buffers after a reconnect.",
		func(c api.ClusterLinkStats) int64 { return c.Resent })
	clusterCounter("mediatord_cluster_link_duplicates_total",
		"Inbound frames dropped by the dedup cursor.",
		func(c api.ClusterLinkStats) int64 { return c.Duplicates })
	clusterCounter("mediatord_cluster_link_redials_total",
		"Outbound connections re-established after an established link dropped.",
		func(c api.ClusterLinkStats) int64 { return c.Redials })
	clusterCounter("mediatord_cluster_link_dial_errors_total",
		"Failed dial or handshake attempts.",
		func(c api.ClusterLinkStats) int64 { return c.DialErrors })
	clusterCounter("mediatord_cluster_link_acks_total",
		"Cumulative-ack frames received on outbound links; receivers delay them (one per 256 frames, or after 20 ms idle).",
		func(c api.ClusterLinkStats) int64 { return c.Acks })
	clusterCounter("mediatord_cluster_link_rejected_total",
		"Inbound handshakes refused.",
		func(c api.ClusterLinkStats) int64 { return c.Rejected })
	clusterCounter("mediatord_cluster_link_frames_in_total",
		"Steady-state frames read from cluster connections.",
		func(c api.ClusterLinkStats) int64 { return c.FramesIn })
	clusterCounter("mediatord_cluster_link_frames_out_total",
		"Steady-state frames written to cluster connections.",
		func(c api.ClusterLinkStats) int64 { return c.FramesOut })
	clusterCounter("mediatord_cluster_link_bytes_in_total",
		"Bytes read from cluster connections (frame headers included).",
		func(c api.ClusterLinkStats) int64 { return c.BytesIn })
	clusterCounter("mediatord_cluster_link_bytes_out_total",
		"Bytes written to cluster connections (frame headers included).",
		func(c api.ClusterLinkStats) int64 { return c.BytesOut })
	r.GaugeFunc("mediatord_cluster_link_queue_len",
		"Unsent payloads pending across live per-peer queues.",
		func() float64 { return float64(s.clusterLinkStats().QueueLen) })
	r.GaugeFunc("mediatord_cluster_link_resend_buffered",
		"Sent-but-unacknowledged frames buffered for replay across live links.",
		func() float64 { return float64(s.clusterLinkStats().ResendBuffered) })

	// Worker pool.
	r.GaugeFunc("mediatord_pool_workers",
		"Fixed worker count of the shared pool.",
		func() float64 { return float64(s.pool.Stats().Workers) })
	r.GaugeFunc("mediatord_pool_active_workers",
		"Workers currently executing a job.",
		func() float64 { return float64(s.pool.Stats().Active) })
	r.GaugeFunc("mediatord_pool_queue_len",
		"Jobs queued behind the workers.",
		func() float64 { return float64(s.pool.Stats().QueueLen) })
	r.CounterFunc("mediatord_pool_jobs_completed_total",
		"Jobs finished by the worker pool.",
		func() float64 { return float64(s.pool.Stats().Completed) })
	r.CounterFunc("mediatord_pool_jobs_shed_total",
		"Non-blocking submits rejected on a full queue.",
		func() float64 { return float64(s.pool.Stats().Shed) })
	r.CounterFunc("mediatord_pool_queue_wait_seconds_total",
		"Cumulative time jobs spent queued before a worker picked them up.",
		func() float64 { return s.pool.Stats().QueueWait.Seconds() })

	// Durable store (series render as zero on a memory-only farm).
	storeMetric := func(get func(store.Metrics) float64) func() float64 {
		return func() float64 {
			if s.st == nil {
				return 0
			}
			return get(s.st.Metrics())
		}
	}
	r.CounterFunc("mediatord_store_wal_appends_total",
		"Records appended to the write-ahead log since boot.",
		storeMetric(func(m store.Metrics) float64 { return float64(m.WALAppends) }))
	r.CounterFunc("mediatord_store_compactions_total",
		"Snapshot compactions since boot.",
		storeMetric(func(m store.Metrics) float64 { return float64(m.Compactions) }))
	r.GaugeFunc("mediatord_store_keys",
		"Live records in the durable store.",
		storeMetric(func(m store.Metrics) float64 { return float64(m.Keys) }))
	r.GaugeFunc("mediatord_store_replay_seconds",
		"Time the last open spent replaying snapshot plus WAL.",
		storeMetric(func(m store.Metrics) float64 { return m.ReplayTime.Seconds() }))

	// Play phase latencies, folded once per terminal session from the
	// play's trace spans.
	s.phaseHist = r.HistogramVec("mediatord_play_phase_seconds",
		"Protocol phase latencies (avss, open, ba; messages classified by body) folded from play traces.", "phase",
		phaseLatencyBounds)

	// Cluster join fan-out: wall time of the parallel join phase per
	// coordinated play (max over peers, not the sum — the scheduler's
	// parallelism claim is visible here).
	s.joinHist = r.Histogram("mediatord_cluster_join_fanout_seconds",
		"Wall time of the parallel cluster-join fan-out per coordinated play.",
		phaseLatencyBounds)

	// Process health: shed state as a live 0/1 gauge (the cumulative
	// mediatord_shed_intervals_total says how often; this says "now"),
	// plus Go runtime series.
	r.GaugeFunc("mediatord_shedding",
		"1 while the readiness probe sheds load (queue depth at or above the watermark), else 0.",
		func() float64 {
			wm := s.cfg.ReadyWatermark
			return boolGauge(wm > 0 && s.pool.QueueLen() >= wm)
		})
	r.GaugeFunc("mediatord_goroutines",
		"Live goroutines in the daemon process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	mem := &memSampler{}
	r.GaugeFunc("mediatord_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(mem.sample().HeapAlloc) })
	r.GaugeFunc("mediatord_heap_sys_bytes",
		"Bytes of heap memory obtained from the OS (runtime.MemStats.HeapSys).",
		func() float64 { return float64(mem.sample().HeapSys) })
	r.CounterFunc("mediatord_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 { return float64(mem.sample().NumGC) })
	r.CounterFunc("mediatord_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(mem.sample().PauseTotalNs) / 1e9 })
}

// boolGauge is the 0/1 value of a yes/no series.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// phaseLatencyBounds bucket the per-phase play latencies (seconds):
// sub-millisecond loopback phases up through multi-second wire plays.
var phaseLatencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// memSampler memoizes runtime.ReadMemStats for a second: one scrape
// triggers at most one stop-the-world sample no matter how many runtime
// series read it, and back-to-back scrapes share it.
type memSampler struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (m *memSampler) sample() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) >= time.Second {
		runtime.ReadMemStats(&m.ms)
		m.at = time.Now()
	}
	return m.ms
}

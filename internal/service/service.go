// Package service is the session farm: a long-running subsystem that
// hosts many concurrent cheap-talk plays in one process. The paper's
// point is that the trusted mediator can be replaced by a service-free
// protocol among the players; this package supplies the serving layer
// that makes the replacement operational — a registry of sessions backed
// by a durable store (internal/store: WAL + snapshots, crash recovery), a
// bounded worker pool executing them with per-session deterministic
// seeds, one metric registry (internal/obs) that counts every play once
// and backs both /v1/stats and /metrics, an event bus (internal/events)
// pushing state transitions to SSE and long-poll clients, and an
// HTTP/JSON control surface (http.go) suitable for a daemon
// (cmd/mediatord).
//
// Two execution backends host the same compiled players: the
// deterministic in-process simulator (runSim; default, the object of
// study of every experiment) and real nodes on the cluster transport
// (runCluster, package wire), where the operating system schedules. A
// wire play hosts every player no peer daemon claimed, so a play without
// peers is simply a cluster play on one daemon.
package service

import (
	"fmt"
	"log"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/cluster"
	"asyncmediator/internal/events"
	"asyncmediator/internal/game"
	"asyncmediator/internal/obs"
	"asyncmediator/internal/pool"
	"asyncmediator/internal/sim"
	"asyncmediator/internal/store"
	"asyncmediator/internal/telemetry"
)

// ErrQueueFull signals farm saturation; clients should back off and retry.
// It is the shared worker pool's sentinel: the farm and the experiment
// engine run on the same pool implementation.
var ErrQueueFull = pool.ErrQueueFull

// Event kinds published to the bus (the api contract's namespaces).
const (
	kindSession    = api.KindSession
	kindExperiment = api.KindExperiment
)

// The readiness lifecycle of the daemon: recovering the store, serving,
// draining for shutdown.
const (
	readyStarting int32 = iota
	readyServing
	readyDraining
)

// Config tunes the farm.
type Config struct {
	// Workers bounds concurrent session execution; defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds sessions queued behind the workers (default 1024);
	// beyond it, submissions fail fast with backpressure.
	QueueDepth int
	// BaseSeed anchors derived per-session seeds (default 1).
	BaseSeed int64
	// MaxN caps the per-session player count (default 64).
	MaxN int
	// DataDir enables the durable store: terminal sessions, experiment
	// jobs, retained traces and keyed create responses persist to a WAL +
	// snapshot pair there and survive restarts. Empty means memory-only
	// (the pre-durability behaviour).
	DataDir string
	// MaxLiveSessions bounds the in-memory session cache (0: unlimited).
	// Terminal sessions beyond the bound evict to the store; without a
	// DataDir, evicted sessions are gone (bounded memory, no durability).
	MaxLiveSessions int
	// RequestLog, when set, receives one structured line per HTTP request
	// (and per recovered handler panic) from the middleware stack; nil
	// disables request logging. Printf-shaped so log.Printf drops in.
	RequestLog func(format string, args ...any)
	// ClusterListen is the host the daemon's cluster endpoint binds: one
	// listener on an ephemeral port, bound on the first wire play and
	// shared by every player the daemon hosts. It is also the host
	// advertised to peer daemons, so it must be reachable from them;
	// default "127.0.0.1" (single-machine clusters).
	ClusterListen string
	// TLSCert/TLSKey/TLSCA are PEM files enabling mutual TLS on every
	// cluster transport connection. All three or none.
	TLSCert, TLSKey, TLSCA string
	// ReadyWatermark makes GET /readyz shed load: at or above this many
	// queued jobs the daemon reports not-ready so load balancers route
	// around it (0: disabled).
	ReadyWatermark int
	// EnableChaos mounts POST /v1/cluster/drop, the fault-injection hook
	// that severs every live cluster transport connection (CI smoke and
	// game-day tooling). Never enable in production.
	EnableChaos bool
	// DisableTracing turns off per-play trace collection (the on-by-
	// default observability layer). The overhead benchmark uses it to
	// measure tracing's cost against an untraced baseline.
	DisableTracing bool
	// SLOObjectives arms the burn-rate engine: each entry is
	// "<kind>:<selector>:p<quantile>:<threshold>", e.g.
	// "phase:ba:p99:250ms" or "variant:Theorem4.1:p95:1s". Empty disables the
	// engine (GET /v1/slo answers 404).
	SLOObjectives []string
	// SLOInterval is the burn-rate evaluation tick (default 5s); the
	// short and long windows are 2 and 12 ticks.
	SLOInterval time.Duration
}

func (c *Config) normalize() {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.SLOInterval == 0 {
		c.SLOInterval = 5 * time.Second
	}
}

// Service is the session farm.
type Service struct {
	cfg    Config
	reg    *Registry
	pool   *pool.Pool
	engine *sim.Engine
	bus    *events.Bus
	st     *store.Store // nil: memory-only
	start  time.Time

	expMu   sync.Mutex
	exps    map[string]*ExpJob
	expNext int64
	expRecs store.Records[ExpView]
	// expPending counts queued+running jobs (driver-goroutine admission);
	// jobs waits for the drivers on Close.
	expPending atomic.Int64
	jobs       sync.WaitGroup

	// stopc closes when shutdown begins, releasing long-poll holders so
	// the HTTP server's in-flight drain completes promptly.
	stopc    chan struct{}
	stopOnce sync.Once

	// ready tracks the GET /readyz gate: starting until store recovery
	// completes and the worker pool accepts submits, draining from the
	// moment shutdown begins — so a load balancer never routes to a
	// daemon mid-replay or mid-drain.
	ready atomic.Int32
	// shedding tracks whether the last readiness probe shed for load;
	// shedIntervals counts entries into that state.
	shedding      atomic.Bool
	shedIntervals *obs.Counter

	persistErrs *obs.Counter

	// Cluster mode: plays this daemon co-hosts for remote coordinators,
	// the starts of theirs still running (Close waits for them), and the
	// one cluster endpoint every wire node of the daemon (local and
	// co-hosted) opens its transport on: its listener, TLS and
	// connections, and the transport counters of every play.
	clusterMu     sync.Mutex
	clusterPlays  map[string]*clusterPlay
	clusterStarts sync.WaitGroup
	clusterHosted *obs.Counter
	clusterEP     *cluster.Endpoint

	// obsReg is the farm's one metric registry: every series is
	// registered on it at boot and GET /metrics renders it; plays is the
	// per-play accounting on it that /v1/stats reads back.
	obsReg *obs.Registry
	plays  playStats

	// phaseHist aggregates protocol latencies across plays, one
	// histogram per phase (one fold per terminal session).
	phaseHist *obs.HistogramVec

	// joinHist times the cluster join fan-out (all parallel peer joins of
	// one play, wall clock).
	joinHist *obs.Histogram

	// traces is the durable retained-trace ring; slo the burn-rate
	// engine (nil without objectives), with sloWG waiting out its ticker
	// goroutine on Close.
	traces *telemetry.Retention
	slo    *telemetry.SLOEngine
	sloWG  sync.WaitGroup

	// idem caches POST responses by Idempotency-Key so clients can retry
	// creates over transport failures.
	idem *idemCache
}

// New starts a farm: workers are live and accepting sessions when it
// returns. With cfg.DataDir set, the durable store is opened first and the
// previous generation's terminal sessions, experiment jobs, and id
// watermarks are recovered before the HTTP surface can serve a request.
// Experiment sweeps share the same worker pool as hosted plays.
func New(cfg Config) (*Service, error) {
	cfg.normalize()
	var clusterTLS *cluster.TLS
	switch {
	case cfg.TLSCert != "" && cfg.TLSKey != "" && cfg.TLSCA != "":
		var err error
		clusterTLS, err = cluster.LoadTLS(cfg.TLSCert, cfg.TLSKey, cfg.TLSCA)
		if err != nil {
			return nil, err
		}
	case cfg.TLSCert != "" || cfg.TLSKey != "" || cfg.TLSCA != "":
		return nil, fmt.Errorf("service: cluster TLS needs all of cert, key, and CA (or none)")
	}
	var st *store.Store
	if cfg.DataDir != "" {
		var err error
		st, err = store.Open(store.Config{Dir: cfg.DataDir})
		if err != nil {
			return nil, err
		}
	}
	s := &Service{
		cfg:          cfg,
		reg:          NewRegistry(cfg.BaseSeed, cfg.MaxN, cfg.MaxLiveSessions, st),
		bus:          events.NewBus(),
		st:           st,
		stopc:        make(chan struct{}),
		start:        time.Now(),
		clusterPlays: make(map[string]*clusterPlay),
		clusterEP:    newClusterEndpoint(cfg.ClusterListen, clusterTLS),
		expRecs:      jobRecords(st),
		idem:         newIdemCache(1024, st),
		obsReg:       obs.NewRegistry(),
	}
	s.registerObsMetrics()
	// Keyed create responses recorded by the previous generation replay
	// across the restart (Idempotency-Replayed), so a client retrying a
	// create over the crash cannot double it.
	s.idem.recover()
	s.exps = make(map[string]*ExpJob)
	s.recoverExperiments()
	s.pool = pool.New(cfg.Workers, cfg.QueueDepth)
	s.engine = sim.EngineOn(s.pool)
	fail := func(err error) (*Service, error) {
		s.beginShutdown()
		s.sloWG.Wait()
		s.pool.Close()
		if st != nil {
			_ = st.Close()
		}
		s.bus.Close()
		return nil, err
	}
	// The telemetry plane (trace retention + SLO engine) boots last:
	// retained traces replay from the store alongside sessions, and a bad
	// objective spec must unwind the pool and store built above.
	if err := s.startTelemetry(); err != nil {
		return fail(err)
	}
	// Recovery replayed and the pool accepts submits: the readiness gate
	// opens only now, so a handler mounted on a half-built farm reports
	// not-ready rather than serving a partial view.
	s.ready.Store(readyServing)
	return s, nil
}

// Readiness reports whether the farm should receive traffic, with a
// reason when it should not — the body of GET /readyz. A serving daemon
// additionally sheds load: with ReadyWatermark configured, a queue depth
// at or above the watermark reports not-ready so load balancers smooth
// saturation before backpressure turns into pool_saturated errors.
func (s *Service) Readiness() api.Readiness {
	switch s.ready.Load() {
	case readyServing:
		if wm := s.cfg.ReadyWatermark; wm > 0 {
			if depth := s.pool.QueueLen(); depth >= wm {
				if s.shedding.CompareAndSwap(false, true) {
					s.shedIntervals.Inc()
				}
				return api.Readiness{Reason: fmt.Sprintf("shedding load: queue depth %d at or above watermark %d", depth, wm)}
			}
			s.shedding.Store(false)
		}
		return api.Readiness{Ready: true}
	case readyDraining:
		return api.Readiness{Reason: "draining for shutdown"}
	default:
		return api.Readiness{Reason: "store recovery in progress"}
	}
}

// Events returns the farm's event bus (state transitions of sessions and
// experiment jobs).
func (s *Service) Events() *events.Bus { return s.bus }

// beginShutdown flips the readiness gate to draining and releases every
// long-poll holder. Idempotent.
func (s *Service) beginShutdown() {
	s.stopOnce.Do(func() {
		s.ready.Store(readyDraining)
		close(s.stopc)
	})
}

// StoreRecovery reports what the durable store found at boot; ok is false
// for a memory-only farm.
func (s *Service) StoreRecovery() (store.Recovery, bool) {
	if s.st == nil {
		return store.Recovery{}, false
	}
	return s.st.Recovery(), true
}

// publish emits one lifecycle transition to the bus.
func (s *Service) publish(kind, id string, state State, data any) {
	s.bus.Publish(events.Event{Kind: kind, ID: id, State: string(state), Terminal: state.Terminal(), Data: data})
}

// CreateSession registers a new session awaiting its type profile.
func (s *Service) CreateSession(spec Spec) (*Session, error) {
	sess, err := s.reg.Create(spec)
	if err != nil {
		return nil, err
	}
	s.publish(kindSession, sess.ID, StateAwaitingTypes, nil)
	return sess, nil
}

// Session looks up an in-memory session by id. Evicted terminal sessions
// are served by Lookup.
func (s *Service) Session(id string) (*Session, bool) {
	return s.reg.Get(id)
}

// Lookup returns a session view from the hot cache or the durable store.
func (s *Service) Lookup(id string) (View, bool) {
	return lookup(s.reg.Get, s.reg.recs, id)
}

// ListSessions pages session views across memory and store, optionally
// filtered by lifecycle state, sorted by id. It returns the total match
// count alongside the page.
func (s *Service) ListSessions(state string, offset, limit int) (int, []View) {
	return s.reg.List(state, offset, limit)
}

// SubmitTypes supplies a session's realized type profile and queues it
// for execution.
func (s *Service) SubmitTypes(id string, types []game.Type) (*Session, error) {
	sess, ok := s.reg.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	if err := sess.SubmitTypes(types); err != nil {
		return nil, err
	}
	// Announce queued before the pool can run it, so subscribers observe
	// lifecycle order.
	s.publish(kindSession, sess.ID, StateQueued, nil)
	if err := s.pool.TrySubmit(func() { s.exec(sess) }); err != nil {
		sess.rollback() // the client may resubmit after backoff
		s.publish(kindSession, sess.ID, StateAwaitingTypes, nil)
		return nil, err
	}
	return sess, nil
}

// exec runs one session on its backend and then, in this order, persists
// the terminal view (and its trace), counts the play, turns the session
// terminal, and announces it. Whoever can observe the terminal state — a
// long-poll, a plain GET, Session.Done, the SSE event — therefore finds
// the play already in /v1/stats and, on a durable farm, already in the
// store. It is the worker-pool callback.
func (s *Service) exec(sess *Session) {
	s.publish(kindSession, sess.ID, StateRunning, nil)
	types := sess.begin()
	tr := sess.beginTrace(!s.cfg.DisableTracing)
	endRun := tr.Begin("run", originLocal)
	cpu0 := obs.CPUTime()
	var (
		prof game.Profile
		res  *async.Result
		err  error
	)
	if sess.Spec.Backend == "wire" {
		prof, res, err = s.runCluster(sess, types)
	} else {
		prof, res, err = runSim(sess, types)
	}
	endRun()
	// The per-play CPU-delta sample: approximate (the process is shared
	// by concurrent plays) but cheap, and enough to spot a play whose
	// cost is compute rather than waiting.
	if cpu := obs.CPUTime() - cpu0; cpu > 0 {
		tr.Annotate("run", originLocal, "cpu_ms",
			strconv.FormatFloat(float64(cpu)/float64(time.Millisecond), 'f', 3, 64))
	}
	view := sess.settle(prof, res, err)

	// Persist. The session record spills lean (trace stripped): the
	// retention ring is the trace's durable home.
	s.retainTrace(view, s.observePlay(view))
	lean := view
	lean.Trace = nil
	stored := s.persisted(s.reg.Persist(lean))

	// Count.
	s.plays.sessions.Inc()
	if err != nil {
		s.plays.failed.Inc()
	} else {
		if res.Deadlocked {
			s.plays.deadlocked.Inc()
		}
		s.plays.steps.Add(int64(res.Stats.Steps))
		s.plays.sent.Add(int64(res.Stats.MessagesSent))
		s.plays.delivered.Add(int64(res.Stats.MessagesDelivered))
		s.plays.outcomes.With(prof.Key()).Inc()
	}
	if view.DurationSeconds > 0 {
		s.plays.durations.With(sess.Spec.Variant).Observe(view.DurationSeconds)
	}

	// Wake waiters last. Only now may the hot cache evict the session: an
	// evicted id is served from the store, which already says terminal. A
	// session whose record failed to persist is never evicted.
	sess.release(view.State)
	if stored {
		s.reg.Retire(view.ID)
	}
	// The terminal event carries the full snapshot (trace included), so a
	// subscriber needs no follow-up GET.
	s.publish(kindSession, view.ID, view.State, view)
}

// StatsView is the farm-level aggregate exposed at GET /v1/stats — the
// wire shape (api.Stats).
type StatsView = api.Stats

// Stats aggregates the farm counters.
func (s *Service) Stats() StatsView {
	tot := s.plays.totals()
	up := time.Since(s.start).Seconds()
	v := StatsView{
		StatsTotals:        tot,
		SessionsCreated:    int(s.reg.Created()),
		SessionsLive:       s.reg.Len(),
		SessionsEvicted:    s.reg.Evicted(),
		PersistErrors:      s.persistErrs.Value(),
		States:             s.reg.StateCounts(),
		Workers:            s.cfg.Workers,
		UptimeSeconds:      up,
		QueueDepth:         s.pool.QueueLen(),
		ShedIntervals:      s.shedIntervals.Value(),
		ClusterPlaysHosted: s.clusterHosted.Value(),
	}
	if s.st != nil {
		v.SessionsPersisted = s.st.Count(sessionKeyPrefix)
		st := storeStats(s.st)
		v.Store = &st
	}
	if up > 0 {
		v.SessionsPerSec = float64(tot.Sessions) / up
		v.MessagesPerSec = float64(tot.MessagesSent) / up
	}
	// Cluster-link stats appear only once the daemon has actually
	// clustered (its endpoint is bound on the first wire play, local or
	// co-hosted) — the api doc promises nil for a never-clustered daemon,
	// so consumers can tell "no transport" from "transport, all zeros".
	if s.clusterEP.Addr() != "" {
		cl := s.clusterLinkStats()
		v.Cluster = &cl
	}
	pl := poolStats(s.pool)
	v.Pool = &pl
	return v
}

// drainWarnAfter is how long Close waits on in-flight work before it
// logs what it is still waiting on. It keeps waiting after that: work
// that must persist is never abandoned.
const drainWarnAfter = 10 * time.Second

// drainReport says what a drain is waiting on: the one-line diagnosis of
// a Close that does not return.
func (s *Service) drainReport() string {
	ps := s.pool.Stats()
	return fmt.Sprintf("service: drain still waiting after %v: %d active workers, %d queued jobs, sessions in flight %v, %d pending experiment jobs",
		drainWarnAfter, ps.Active, ps.QueueLen, s.reg.InFlight(), s.expPending.Load())
}

// Close drains the farm: intake stops, queued and running sessions finish
// (and persist), experiment-job drivers run their remaining shards inline
// against the closed pool and persist, the store takes a final compacted
// snapshot, then the event bus closes every subscriber.
func (s *Service) Close() {
	s.beginShutdown()
	// The SLO ticker parks on stopc; wait it out before the bus (its
	// alert sink) closes.
	s.sloWG.Wait()
	// Release parked co-hosted cluster plays (never-started or
	// lingering), so their transports and goroutines cannot outlive the
	// farm. A start that took clusterMu before this saw stopc open and is
	// counted in clusterStarts; any later one is refused.
	s.clusterMu.Lock()
	pending := make([]string, 0, len(s.clusterPlays))
	for id := range s.clusterPlays {
		pending = append(pending, id)
	}
	s.clusterMu.Unlock()
	for _, id := range pending {
		s.releaseClusterPlay(id)
	}
	slow := time.AfterFunc(drainWarnAfter, func() { log.Print(s.drainReport()) })
	s.pool.Close()
	s.jobs.Wait()
	s.clusterStarts.Wait()
	slow.Stop()
	// Every wire play has ended: close the cluster endpoint's listener
	// and connections (and any transport a late linger left open).
	s.clusterEP.Close()
	if s.st != nil {
		_ = s.st.Compact() // graceful shutdown = snapshot + empty WAL
		_ = s.st.Close()
	}
	s.bus.Close()
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/game"
	"asyncmediator/internal/pool"
	"asyncmediator/internal/sim"
	"asyncmediator/internal/store"
)

// ErrNotFound marks a lookup of an unknown session id.
var ErrNotFound = errors.New("service: no such session")

// maxWait caps the long-poll hold time (the contract's MaxWaitSeconds).
const maxWait = api.MaxWaitSeconds * time.Second

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeAPIError renders the contract's error envelope with the status
// its code maps to.
func writeAPIError(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, e.Code.HTTPStatus(), api.ErrorEnvelope{Error: e})
}

// apiError classifies a service error into the contract's code set. The
// farm's sentinels map to their stable codes; anything unrecognized takes
// the caller's fallback (what kind of request-shaped failure the handler
// was performing).
func apiError(err error, fallback api.ErrorCode) *api.Error {
	var ae *api.Error
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrUnknownExperiment), errors.Is(err, ErrClusterUnknown):
		return api.Errorf(api.CodeNotFound, "%v", err)
	case errors.Is(err, ErrBadTypes):
		return api.Errorf(api.CodeInvalidArgument, "%v", err)
	case errors.Is(err, ErrConflict):
		return api.Errorf(api.CodeConflict, "%v", err)
	case errors.Is(err, ErrQueueFull):
		return api.Errorf(api.CodePoolSaturated, "%v", err)
	case errors.Is(err, pool.ErrClosed):
		return api.Errorf(api.CodeNotReady, "%v", err)
	default:
		return api.Errorf(fallback, "%v", err)
	}
}

// Handler returns the farm's HTTP/JSON API. The versioned surface (see
// package api, and api.Routes for the full table) lives under /v1:
//
//	POST /v1/sessions             create a session (body: api.SessionSpec)
//	GET  /v1/sessions             page sessions across memory + store
//	                              (?state=done&offset=0&limit=50)
//	GET  /v1/sessions/{id}        session snapshot; ?wait=30s long-polls
//	POST /v1/sessions/{id}/types  submit the realized type profile and run
//	GET  /v1/events               SSE stream of state transitions
//	GET  /v1/experiments          catalog of the paper's experiments
//	POST /v1/jobs                 create a persisted async experiment job
//	GET  /v1/jobs/{id}            job snapshot; ?wait= long-polls
//	POST /v1/cluster/join         co-host a play (daemon-to-daemon)
//	POST /v1/cluster/start        run co-hosted players to termination
//	POST /v1/cluster/finish       release a finished play's transports
//	GET  /v1/traces               search retained traces
//	GET  /v1/slo                  burn-rate state of the SLO objectives
//	GET  /v1/stats                farm-wide aggregate statistics
//
// plus unversioned infrastructure (GET /metrics Prometheus exposition,
// GET /healthz liveness, GET /readyz readiness with load-shedding).
// The pre-/v1 unversioned aliases were removed after their one-release
// deprecation window. POST handlers honour the Idempotency-Key header.
// Everything is wrapped in the middleware stack: panic recovery,
// request-id injection/propagation, per-request logging.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	// The versioned contract.
	mux.HandleFunc("POST "+api.Prefix+"/sessions", s.idempotentDurable(s.handleSessionCreate))
	mux.HandleFunc("GET "+api.Prefix+"/sessions", s.handleSessionList)
	mux.HandleFunc("GET "+api.Prefix+"/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		serveView(s, w, r, "session", s.reg.Get, s.reg.recs)
	})
	mux.HandleFunc("GET "+api.Prefix+"/sessions/{id}/trace", s.handleSessionTrace)
	mux.HandleFunc("POST "+api.Prefix+"/sessions/{id}/types", s.idempotent(s.handleTypesSubmit))
	mux.HandleFunc("GET "+api.Prefix+"/events", s.serveEvents)
	mux.HandleFunc("GET "+api.Prefix+"/experiments", s.handleCatalog)
	mux.HandleFunc("POST "+api.Prefix+"/jobs", s.idempotentDurable(s.handleJobCreate))
	mux.HandleFunc("GET "+api.Prefix+"/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		serveView(s, w, r, "experiment job", s.ExperimentJob, s.expRecs)
	})
	mux.HandleFunc("POST "+api.Prefix+"/cluster/join", s.idempotent(serveCall(http.StatusCreated, s.ClusterJoin)))
	mux.HandleFunc("POST "+api.Prefix+"/cluster/start", s.idempotent(serveCall(http.StatusOK, s.ClusterStart)))
	mux.HandleFunc("POST "+api.Prefix+"/cluster/finish", s.idempotent(serveCall(http.StatusOK, s.ClusterFinish)))
	mux.HandleFunc("GET "+api.Prefix+"/traces", s.handleTraces)
	mux.HandleFunc("GET "+api.Prefix+"/slo", s.handleSLO)
	mux.HandleFunc("GET "+api.Prefix+"/stats", s.handleStats)

	// The fault-injection hook: mounted only when chaos is explicitly
	// enabled (mediatord -chaos), for CI smoke and game days. Wrapped in
	// the idempotency protocol like every POST, so the SDK's keyed
	// transport retries never double a drop.
	if s.cfg.EnableChaos {
		mux.HandleFunc("POST "+api.Prefix+"/cluster/drop", s.idempotent(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]int{"dropped": s.DropClusterConns()})
		}))
	}

	// Unversioned infrastructure: scrape and probe endpoints stay where
	// monitoring tooling expects them.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.writeMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := s.Readiness()
		if !rd.Ready {
			writeJSON(w, http.StatusServiceUnavailable, rd)
			return
		}
		writeJSON(w, http.StatusOK, rd)
	})

	return withMiddleware(mux, s.cfg.RequestLog)
}

// serveCall answers a POST whose body is one Req: the daemon-to-daemon
// cluster calls (join 201, start and finish 200). It decodes the body
// strictly, calls call, maps a failure to the contract's code
// (invalid_argument when no sentinel narrows it) and encodes the
// response with status.
func serveCall[Req, Resp any](status int, call func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if e := decodeBody(w, r, &req); e != nil {
			writeAPIError(w, e)
			return
		}
		resp, err := call(req)
		if err != nil {
			writeAPIError(w, apiError(err, api.CodeInvalidArgument))
			return
		}
		writeJSON(w, status, resp)
	}
}

// handleSessionCreate answers POST /v1/sessions.
func (s *Service) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if e := decodeBody(w, r, &spec); e != nil {
		writeAPIError(w, e)
		return
	}
	sess, err := s.CreateSession(spec)
	if err != nil {
		writeAPIError(w, apiError(err, api.CodeInvalidArgument))
		return
	}
	writeJSON(w, http.StatusCreated, api.Handle{ID: sess.ID, State: StateAwaitingTypes, Seed: sess.Seed()})
}

// handleSessionList answers GET /v1/sessions with one page of the
// id-sorted collection.
func (s *Service) handleSessionList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	if state != "" && !api.KnownState(state) {
		writeAPIError(w, api.Errorf(api.CodeInvalidArgument, "unknown state %q", state).WithDetail("param", "state"))
		return
	}
	offset, e := queryBoundedInt(r, "offset", 0, 0)
	if e != nil {
		writeAPIError(w, e)
		return
	}
	limit, e := queryBoundedInt(r, "limit", api.DefaultPageLimit, 1)
	if e != nil {
		writeAPIError(w, e)
		return
	}
	if limit > api.MaxPageLimit {
		limit = api.MaxPageLimit
	}
	total, page := s.ListSessions(state, offset, limit)
	// List pages stay lean: the trace is served by the per-session
	// endpoints, not repeated across a collection.
	for i := range page {
		page[i].Trace = nil
	}
	writeJSON(w, http.StatusOK, api.SessionPage{
		PageInfo: api.NewPageInfo(total, offset, limit, len(page)),
		Sessions: page,
	})
}

// serveView answers GET /v1/sessions/{id} and GET /v1/jobs/{id}: the hot
// object, long-polled with ?wait= until it is terminal, then the store
// (an evicted or earlier daemon's record), then not_found.
func serveView[V any, L live[V]](s *Service, w http.ResponseWriter, r *http.Request, what string, hot func(string) (L, bool), recs store.Records[V]) {
	wait, e := parseWait(r)
	if e != nil {
		writeAPIError(w, e)
		return
	}
	id := r.PathValue("id")
	if obj, ok := hot(id); ok {
		if wait > 0 && !obj.stateNow().Terminal() {
			s.waitOn(r.Context(), obj.Done(), wait)
		}
		writeJSON(w, http.StatusOK, obj.Snapshot())
		return
	}
	if v, ok := recs.Get(id); ok {
		writeJSON(w, http.StatusOK, v)
		return
	}
	writeAPIError(w, api.Errorf(api.CodeNotFound, "no such %s %s", what, id))
}

// handleSessionTrace answers GET /v1/sessions/{id}/trace: the terminal
// play's stitched trace alone. The lookup chain spans the places a trace
// can live in — the hot session object, then the retention ring (which
// survives hot-cache eviction and restarts), then, read-only, session
// records that embed their trace (earlier daemons wrote them with
// retention disabled). Pre-terminal sessions and plays run with tracing
// disabled answer not_found — the trace exists only once the play
// finished.
func (s *Service) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sess, ok := s.Session(id); ok {
		if tv := sess.Snapshot().Trace; tv != nil {
			writeJSON(w, http.StatusOK, tv)
			return
		}
	}
	if tv, ok := s.traces.Trace(id); ok {
		writeJSON(w, http.StatusOK, tv)
		return
	}
	if v, ok := s.Lookup(id); ok {
		if v.Trace != nil {
			writeJSON(w, http.StatusOK, v.Trace)
			return
		}
		writeAPIError(w, api.Errorf(api.CodeNotFound, "session %s has no trace (not terminal, or tracing disabled)", id))
		return
	}
	writeAPIError(w, api.Errorf(api.CodeNotFound, "no such session %s", id))
}

// handleTypesSubmit answers POST /v1/sessions/{id}/types.
func (s *Service) handleTypesSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.TypesRequest
	if e := decodeBody(w, r, &req); e != nil {
		writeAPIError(w, e)
		return
	}
	types := make([]game.Type, len(req.Types))
	for i, t := range req.Types {
		types[i] = game.Type(t)
	}
	sess, err := s.SubmitTypes(r.PathValue("id"), types)
	if err != nil {
		writeAPIError(w, apiError(err, api.CodeInternal))
		return
	}
	writeJSON(w, http.StatusAccepted, api.Handle{ID: sess.ID, State: sess.stateNow(), Seed: sess.Seed()})
}

// handleCatalog answers GET /v1/experiments.
func (s *Service) handleCatalog(w http.ResponseWriter, r *http.Request) {
	var resp api.CatalogResponse
	for _, e := range sim.Catalog() {
		resp.Experiments = append(resp.Experiments, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobCreate answers POST /v1/jobs.
func (s *Service) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req ExpRequest
	if e := decodeBody(w, r, &req); e != nil {
		writeAPIError(w, e)
		return
	}
	job, err := s.CreateExperiment(req)
	if err != nil {
		writeAPIError(w, apiError(err, api.CodeInvalidArgument))
		return
	}
	writeJSON(w, http.StatusCreated, api.Handle{ID: job.ID, State: job.stateNow()})
}

// handleStats answers GET /v1/stats.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// serveEvents streams the farm's event bus as server-sent events. The
// first frame is a "hello" event carrying the bus's current sequence
// number — a subscriber that reads it is guaranteed to receive every
// event published afterwards (modulo overflow, reported via gap in seq).
// ?session=<id> narrows to one session; ?kind=session|experiment|fleet
// narrows to one namespace.
func (s *Service) serveEvents(w http.ResponseWriter, r *http.Request) {
	if !canFlush(w) {
		writeAPIError(w, api.Errorf(api.CodeInternal, "streaming unsupported"))
		return
	}
	fl := http.NewResponseController(w)
	sessionFilter := r.URL.Query().Get("session")
	kindFilter := r.URL.Query().Get("kind")
	switch kindFilter {
	case "", api.KindSession, api.KindExperiment, api.KindFleet:
	default:
		writeAPIError(w, api.Errorf(api.CodeInvalidArgument, "unknown kind %q (want %s, %s, or %s)",
			kindFilter, api.KindSession, api.KindExperiment, api.KindFleet).WithDetail("param", "kind"))
		return
	}

	sub := s.bus.Subscribe(256)
	defer sub.Cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	hello, _ := json.Marshal(api.Hello{Seq: s.bus.Seq()})
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", api.EventNameHello, hello)
	_ = fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case e, open := <-sub.C:
			if !open {
				return // farm shutting down
			}
			if sessionFilter != "" && !(e.Kind == kindSession && e.ID == sessionFilter) {
				continue
			}
			if kindFilter != "" && e.Kind != kindFilter {
				continue
			}
			frame := api.Event{
				Seq: e.Seq, Kind: e.Kind, ID: e.ID,
				State: State(e.State), Terminal: e.Terminal,
			}
			if e.Data != nil {
				if raw, err := json.Marshal(e.Data); err == nil {
					frame.Data = raw
				}
			}
			data, err := json.Marshal(frame)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", e.Kind, e.Seq, data)
			_ = fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			_ = fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// waitOn blocks until done closes, the wait elapses, the client hangs up,
// or the farm begins shutting down — the long-poll primitive. The
// shutdown case matters: a held long-poll must not stall the HTTP
// server's in-flight drain.
func (s *Service) waitOn(ctx context.Context, done <-chan struct{}, wait time.Duration) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
	case <-ctx.Done():
	case <-s.stopc:
	}
}

// parseWait parses the optional ?wait= long-poll duration, capped at
// maxWait.
func parseWait(r *http.Request) (time.Duration, *api.Error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, api.Errorf(api.CodeInvalidArgument, "bad wait=%q (want a duration like 30s)", raw).WithDetail("param", "wait")
	}
	if d > maxWait {
		d = maxWait
	}
	return d, nil
}

// queryBoundedInt parses an optional integer query parameter with an
// inclusive lower bound.
func queryBoundedInt(r *http.Request, key string, def, min int) (int, *api.Error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < min {
		return 0, api.Errorf(api.CodeInvalidArgument, "bad %s=%q (want an integer >= %d)", key, raw, min).WithDetail("param", key)
	}
	return v, nil
}

// decodeBody strictly decodes a JSON body into v: unknown fields,
// trailing garbage, and bodies over api.MaxBodyBytes are all rejected
// with an invalid_argument envelope.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *api.Error {
	r.Body = http.MaxBytesReader(w, r.Body, api.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return api.Errorf(api.CodeInvalidArgument, "request body exceeds %d bytes", maxErr.Limit).WithDetail("limit_bytes", strconv.FormatInt(maxErr.Limit, 10))
		}
		return api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err)
	}
	// Only whitespace may follow the value. Decoder.More is no test of
	// that: it reports false in front of a stray ']' or '}'.
	if _, err := dec.Token(); err != io.EOF {
		return api.Errorf(api.CodeInvalidArgument, "bad request body: trailing data after the JSON value")
	}
	return nil
}

// ListenAndServe runs the HTTP API on addr until ctx is cancelled, then
// shuts down gracefully: the listener stops accepting, in-flight requests
// get a grace period, the worker pool drains queued sessions, and the
// store takes a final compacted snapshot before this returns.
func (s *Service) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	// Release SSE streams and long-poll holders first: SSE handlers exit
	// when the bus closes, long-polls when stopc closes, letting
	// Shutdown's in-flight drain complete promptly. Transitions published
	// while draining are dropped (subscribers are disconnecting); session
	// persistence is unaffected.
	s.beginShutdown()
	s.bus.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	s.Close() // drain queued and running sessions, snapshot the store
	return err
}

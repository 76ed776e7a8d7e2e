package service

import (
	"net/http"
	"strconv"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/telemetry"
)

// This file wires the durable telemetry plane (internal/telemetry) into
// the farm: every terminal play's compacted trace is retained on a
// bounded ring that shares the session store (so GET /v1/sessions/{id}/
// trace survives hot-cache eviction and restarts), GET /v1/traces
// searches the ring, and the SLO engine turns the same trace stream into
// multi-window burn-rate alerts on the event bus.

// sloBurnRule is the alert rule name SLO transitions publish under:
// states "alert.slo_burn" / "clear.slo_burn", kind "fleet".
const sloBurnRule = "slo_burn"

// startTelemetry opens the retained-trace ring (replaying "tr-" records
// from the store) and arms the SLO engine. Called from New before the
// fleet plane; a bad objective spec fails boot.
func (s *Service) startTelemetry() error {
	if s.cfg.TraceRetention >= 0 {
		tr, err := telemetry.OpenRetention(telemetry.RetentionConfig{
			Store:      s.st,
			MaxRecords: s.cfg.TraceRetention,
			MaxBytes:   s.cfg.TraceRetentionBytes,
		})
		if err != nil {
			return err
		}
		s.traces = tr
		s.obsReg.GaugeFunc("mediatord_traces_retained",
			"Finished-play traces held on the retention ring.",
			func() float64 { n, _, _ := s.traces.Stats(); return float64(n) })
		s.obsReg.GaugeFunc("mediatord_traces_retained_bytes",
			"Encoded size of the retained-trace ring.",
			func() float64 { _, b, _ := s.traces.Stats(); return float64(b) })
		s.obsReg.CounterFunc("mediatord_traces_evicted_total",
			"Traces evicted from the retention ring (count or byte bound).",
			func() float64 { _, _, e := s.traces.Stats(); return float64(e) })
	}
	objs, err := telemetry.ParseObjectives(s.cfg.SLOObjectives)
	if err != nil {
		return err
	}
	s.slo = telemetry.NewSLOEngine(telemetry.SLOConfig{
		Objectives: objs,
		OnAlert:    s.publishSLOAlert,
	})
	if s.slo != nil {
		s.registerSLOMetrics()
		s.sloWG.Add(1)
		go s.sloLoop()
	}
	return nil
}

// registerSLOMetrics exposes the engine's rolling state: the two burn
// rates and the firing latch, one series per objective.
func (s *Service) registerSLOMetrics() {
	perObjective := func(get func(api.SLOObjectiveView) float64) func() map[string]float64 {
		return func() map[string]float64 {
			out := make(map[string]float64)
			for _, o := range s.slo.Status() {
				out[o.Objective] = get(o)
			}
			return out
		}
	}
	s.obsReg.GaugeVecFunc("mediatord_slo_burn_ratio",
		"Short-window burn rate per SLO objective (1.0 = spending the error budget exactly).", "objective",
		perObjective(func(o api.SLOObjectiveView) float64 { return o.ShortBurn }))
	s.obsReg.GaugeVecFunc("mediatord_slo_burn_ratio_long",
		"Long-window burn rate per SLO objective.", "objective",
		perObjective(func(o api.SLOObjectiveView) float64 { return o.LongBurn }))
	s.obsReg.GaugeVecFunc("mediatord_slo_firing",
		"Whether alert.slo_burn is active per objective (1 firing, 0 clear).", "objective",
		perObjective(func(o api.SLOObjectiveView) float64 { return boolGauge(o.Firing) }))
}

// sloLoop drives the burn-rate windows, one tick per SLOInterval, until
// shutdown begins.
func (s *Service) sloLoop() {
	defer s.sloWG.Done()
	t := time.NewTicker(s.cfg.SLOInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			s.slo.Tick()
		}
	}
}

// observePlay feeds one terminal play's latencies to their consumers in
// a single walk of its trace: the end-to-end latency (and failure flag)
// to the SLO variant objectives, and each protocol-phase span to the SLO
// phase objectives, to the rolling phase-latency histogram, and into the
// per-phase millisecond digest it
// returns (what GET /v1/traces filters on). The exemplar carried on a
// breaching SLO sample is the play's retained trace.
func (s *Service) observePlay(view View) (phaseMS map[string]float64) {
	traceID := ""
	if view.Trace != nil {
		traceID = view.Trace.TraceID
	}
	dur := time.Duration(view.DurationSeconds * float64(time.Second))
	s.slo.Observe(telemetry.KindVariant, view.Variant, dur, view.State == StateFailed, view.ID, traceID)
	if view.Trace == nil {
		return nil
	}
	for _, sp := range view.Trace.Spans {
		switch sp.Name {
		case "run", "sched":
			continue // stages, not protocol phases
		}
		d := sp.EndUS - sp.StartUS
		if d <= 0 {
			continue
		}
		s.phaseHist.Observe(float64(d) / 1e6)
		s.slo.Observe(telemetry.KindPhase, sp.Name, time.Duration(d)*time.Microsecond, false, view.ID, traceID)
		if phaseMS == nil {
			phaseMS = make(map[string]float64)
		}
		phaseMS[sp.Name] += float64(d) / 1000
	}
	return phaseMS
}

// retainTrace adds a terminal play's compacted trace to the ring under
// its per-phase digest. A failed store write counts as a persist error,
// like a failed session write.
func (s *Service) retainTrace(view View, phaseMS map[string]float64) {
	if s.traces == nil || view.Trace == nil {
		return
	}
	sum := api.TraceSummary{
		Session:        view.ID,
		TraceID:        view.Trace.TraceID,
		Variant:        view.Variant,
		State:          string(view.State),
		DurationMS:     view.DurationSeconds * 1000,
		FinishedUnixMS: time.Now().UnixMilli(),
		PhaseMS:        phaseMS,
		Spans:          len(view.Trace.Spans),
	}
	if err := s.traces.Add(sum, view.Trace); err != nil {
		s.persistErrs.Inc()
	}
}

// publishSLOAlert republishes one burn-rate edge on the event bus: kind
// "fleet", state "alert.slo_burn" / "clear.slo_burn", id = the objective
// spec, with the exemplar trace riding the payload.
func (s *Service) publishSLOAlert(a telemetry.SLOAlert) {
	state := "alert." + sloBurnRule
	if a.Cleared {
		state = "clear." + sloBurnRule
	}
	s.publish(api.KindFleet, a.Objective, State(state), api.FleetAlert{
		Rule:    sloBurnRule,
		Index:   -1,
		Message: a.Message,
		Value:   a.ShortBurn,
		TraceID: a.ExemplarTrace,
		Session: a.ExemplarSession,
		Cleared: a.Cleared,
	})
}

// SLOView renders the engine's rolling state; ok is false when no
// objectives are configured.
func (s *Service) SLOView() (api.SLOView, bool) {
	if s.slo == nil {
		return api.SLOView{}, false
	}
	short, long := s.slo.Windows()
	return api.SLOView{
		IntervalMS:  s.cfg.SLOInterval.Milliseconds(),
		ShortWindow: short,
		LongWindow:  long,
		Objectives:  s.slo.Status(),
	}, true
}

// handleSLO answers GET /v1/slo. A daemon without objectives answers
// not_found — the resource does not exist here.
func (s *Service) handleSLO(w http.ResponseWriter, r *http.Request) {
	v, ok := s.SLOView()
	if !ok {
		writeAPIError(w, api.Errorf(api.CodeNotFound, "no SLO objectives configured on this daemon (-slo)"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleTraces answers GET /v1/traces: search the retained-trace ring
// by variant, phase, latency floor, and finish time, newest first with
// cursor pagination.
func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeAPIError(w, api.Errorf(api.CodeNotFound, "trace retention is disabled on this daemon (-trace-retention -1)"))
		return
	}
	f, e := parseTraceFilter(r)
	if e != nil {
		writeAPIError(w, e)
		return
	}
	page, total, next := s.traces.Query(f)
	if page == nil {
		page = []api.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, api.TracePage{Traces: page, Total: total, NextCursor: next})
}

// parseTraceFilter decodes the /v1/traces query parameters.
func parseTraceFilter(r *http.Request) (telemetry.Filter, *api.Error) {
	f := telemetry.Filter{
		Variant: r.URL.Query().Get("variant"),
		Phase:   r.URL.Query().Get("phase"),
	}
	if raw := r.URL.Query().Get("min_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			return f, api.Errorf(api.CodeInvalidArgument, "bad min_ms=%q (want a non-negative number)", raw).WithDetail("param", "min_ms")
		}
		f.MinMS = v
	}
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return f, api.Errorf(api.CodeInvalidArgument, "bad since=%q (want unix milliseconds)", raw).WithDetail("param", "since")
		}
		f.Since = v
	}
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return f, api.Errorf(api.CodeInvalidArgument, "bad cursor=%q (want a previous page's next_cursor)", raw).WithDetail("param", "cursor")
		}
		f.Cursor = v
	}
	limit, e := queryBoundedInt(r, "limit", api.DefaultPageLimit, 1)
	if e != nil {
		return f, e
	}
	if limit > api.MaxPageLimit {
		limit = api.MaxPageLimit
	}
	f.Limit = limit
	return f, nil
}

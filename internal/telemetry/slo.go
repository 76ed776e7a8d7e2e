package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncmediator/api"
)

// An SLO objective watches one sample stream — all plays of a variant,
// or one protocol phase across plays — against a latency threshold at a
// target quantile, e.g. "phase:ba:p99:250ms" ("99% of ba phases
// complete within 250ms"). Failed plays count as over-threshold on
// their variant objectives regardless of latency, so the objectives are
// joint latency/error budgets.
//
// Burn rate is the classic multi-window form: the fraction of samples
// over threshold in a rolling window, divided by the error budget
// (1 − quantile). Each objective counts its samples and its
// over-threshold samples, and the windows difference those two counts
// across ticks. Burning at 1.0 spends the budget exactly; the alert
// fires on the first tick where BOTH the short and the long window
// reach 1.0 (fast to trigger, robust to blips) and clears when either
// drops back under.

// ObjectiveKind selects an objective's sample stream.
const (
	KindVariant = "variant"
	KindPhase   = "phase"
)

// Objective is one parsed SLO target.
type Objective struct {
	// Kind is KindVariant or KindPhase.
	Kind string
	// Selector is the variant name ("Theorem4.1") or phase name ("ba").
	Selector string
	// Quantile is the target quantile in (0,1), e.g. 0.99.
	Quantile float64
	// Threshold is the latency bound at the quantile.
	Threshold time.Duration
	// Spec is the canonical string form, "<kind>:<selector>:p<q>:<dur>".
	Spec string
}

// ParseObjective parses "<kind>:<selector>:p<quantile>:<threshold>",
// e.g. "phase:ba:p99:250ms" or "variant:Theorem4.1:p95:1s". Quantiles accept
// decimals ("p99.9").
func ParseObjective(s string) (Objective, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) != 4 {
		return Objective{}, fmt.Errorf("telemetry: objective %q: want <kind>:<selector>:p<quantile>:<threshold>", s)
	}
	o := Objective{Kind: parts[0], Selector: parts[1]}
	if o.Kind != KindVariant && o.Kind != KindPhase {
		return Objective{}, fmt.Errorf("telemetry: objective %q: kind %q not %q or %q", s, o.Kind, KindVariant, KindPhase)
	}
	if o.Selector == "" {
		return Objective{}, fmt.Errorf("telemetry: objective %q: empty selector", s)
	}
	q := parts[2]
	if !strings.HasPrefix(q, "p") {
		return Objective{}, fmt.Errorf("telemetry: objective %q: quantile %q must start with 'p'", s, q)
	}
	pct, err := strconv.ParseFloat(strings.TrimPrefix(q, "p"), 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return Objective{}, fmt.Errorf("telemetry: objective %q: quantile %q not in (0,100)", s, q)
	}
	o.Quantile = pct / 100
	d, err := time.ParseDuration(parts[3])
	if err != nil || d <= 0 {
		return Objective{}, fmt.Errorf("telemetry: objective %q: bad threshold %q", s, parts[3])
	}
	o.Threshold = d
	o.Spec = fmt.Sprintf("%s:%s:p%s:%s", o.Kind, o.Selector, strconv.FormatFloat(pct, 'f', -1, 64), d)
	return o, nil
}

// ParseObjectives parses a list, rejecting duplicates.
func ParseObjectives(specs []string) ([]Objective, error) {
	var out []Objective
	seen := make(map[string]bool)
	for _, s := range specs {
		if strings.TrimSpace(s) == "" {
			continue
		}
		o, err := ParseObjective(s)
		if err != nil {
			return nil, err
		}
		if seen[o.Spec] {
			return nil, fmt.Errorf("telemetry: objective %q configured twice", o.Spec)
		}
		seen[o.Spec] = true
		out = append(out, o)
	}
	return out, nil
}

// ShortWindow and LongWindow are the burn-rate windows in ticks of the
// caller's ticker, so they scale with its period.
const (
	ShortWindow = 2
	LongWindow  = 12
)

// burnRule is the alert rule the engine's transitions carry: the event
// states "alert.slo_burn" and "clear.slo_burn".
const burnRule = "slo_burn"

// tally is an objective's cumulative counts at one tick.
type tally struct{ total, over int64 }

// sloState is one objective's runtime: two counts, the per-tick ring
// the windows difference over, and the edge-trigger latch.
type sloState struct {
	obj Objective
	// under counts the samples at or under the threshold, over those
	// past it (failed plays included). A sample is one add to one of
	// them, so it falls wholly into one tick's window: a window never
	// holds more over-threshold samples than samples.
	under, over atomic.Int64

	// mu guards the exemplar and the Status-visible rolling results.
	mu              sync.Mutex
	exemplarTrace   string
	exemplarSession string
	firing          bool
	short           float64
	long            float64

	// Owned by Tick (single caller): the tick count and the counts at
	// the last LongWindow+1 ticks, tick k in slot k mod LongWindow+1.
	// Slot 0 starts as the zero tally of tick 0, so samples observed
	// before the first tick count toward the first window.
	ticks int
	ring  [LongWindow + 1]tally
}

// burn is the over-threshold fraction of the samples observed in the
// last window ticks (all of them, before the window-th tick), divided
// by the error budget 1 − quantile.
func (st *sloState) burn(now tally, window int) float64 {
	then := st.ring[max(st.ticks-window, 0)%len(st.ring)]
	total := now.total - then.total
	if total <= 0 {
		return 0
	}
	return float64(now.over-then.over) / float64(total) / (1 - st.obj.Quantile)
}

// SLOEngine evaluates the objectives. Observe is lock-free on the hot
// path (two atomics plus one small exemplar mutex on breaching
// samples); Tick is called by exactly one goroutine.
type SLOEngine struct {
	states  []*sloState
	byKey   map[string][]*sloState // "kind:selector" -> objectives
	onAlert func(objective string, a api.FleetAlert)
}

// NewSLOEngine builds the engine; nil when no objectives are
// configured. onAlert receives edge transitions with the objective's
// spec, called from Tick without engine locks held.
func NewSLOEngine(objs []Objective, onAlert func(objective string, a api.FleetAlert)) *SLOEngine {
	if len(objs) == 0 {
		return nil
	}
	e := &SLOEngine{byKey: make(map[string][]*sloState), onAlert: onAlert}
	for _, o := range objs {
		st := &sloState{obj: o}
		e.states = append(e.states, st)
		key := o.Kind + ":" + o.Selector
		e.byKey[key] = append(e.byKey[key], st)
	}
	return e
}

// Observe feeds one sample to every objective watching (kind,
// selector). failed marks an errored play: it counts as over-threshold
// whatever its latency. session/traceID become the exemplar when the
// sample breaches.
func (e *SLOEngine) Observe(kind, selector string, d time.Duration, failed bool, session, traceID string) {
	if e == nil {
		return
	}
	for _, st := range e.byKey[kind+":"+selector] {
		if !failed && d <= st.obj.Threshold {
			st.under.Add(1)
			continue
		}
		st.over.Add(1)
		st.mu.Lock()
		st.exemplarTrace = traceID
		st.exemplarSession = session
		st.mu.Unlock()
	}
}

// Tick advances every objective's windows by one interval and emits
// edge transitions. Call from a single goroutine.
func (e *SLOEngine) Tick() {
	if e == nil {
		return
	}
	for _, st := range e.states {
		over := st.over.Load()
		now := tally{total: over + st.under.Load(), over: over}
		st.ticks++
		st.ring[st.ticks%len(st.ring)] = now
		short, long := st.burn(now, ShortWindow), st.burn(now, LongWindow)
		firing := short >= 1 && long >= 1

		st.mu.Lock()
		st.short, st.long = short, long
		tr, sess := st.exemplarTrace, st.exemplarSession
		changed := firing != st.firing
		st.firing = firing
		st.mu.Unlock()
		if !changed || e.onAlert == nil {
			continue
		}
		a := api.FleetAlert{Rule: burnRule, Value: short, Cleared: !firing}
		if firing {
			a.TraceID, a.Session = tr, sess
			a.Message = fmt.Sprintf("slo %s burning %.1fx budget (short) / %.1fx (long); exemplar %s",
				st.obj.Spec, short, long, orNone(sess))
		} else {
			a.Message = fmt.Sprintf("slo %s back under budget (short %.1fx, long %.1fx)", st.obj.Spec, short, long)
		}
		e.onAlert(st.obj.Spec, a)
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// Status renders every objective's rolling state for GET /v1/slo and
// the burn-ratio metrics, sorted by spec for stable output.
func (e *SLOEngine) Status() []api.SLOObjectiveView {
	if e == nil {
		return nil
	}
	out := make([]api.SLOObjectiveView, 0, len(e.states))
	for _, st := range e.states {
		st.mu.Lock()
		v := api.SLOObjectiveView{
			Objective:       st.obj.Spec,
			Kind:            st.obj.Kind,
			Selector:        st.obj.Selector,
			Quantile:        st.obj.Quantile,
			ThresholdMS:     float64(st.obj.Threshold) / float64(time.Millisecond),
			ShortBurn:       st.short,
			LongBurn:        st.long,
			Firing:          st.firing,
			ExemplarTrace:   st.exemplarTrace,
			ExemplarSession: st.exemplarSession,
			Samples:         st.under.Load() + st.over.Load(),
		}
		st.mu.Unlock()
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Objective < out[j].Objective })
	return out
}

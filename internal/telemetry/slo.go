package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/obs"
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
// (1 − quantile). Burning at 1.0 spends the budget exactly; the alert
// fires on the first tick where BOTH the short and the long window
// exceed 1.0 (fast to trigger, robust to blips) and clears when either
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
	// Selector is the variant name ("4.1") or phase name ("ba").
	Selector string
	// Quantile is the target quantile in (0,1), e.g. 0.99.
	Quantile float64
	// Threshold is the latency bound at the quantile.
	Threshold time.Duration
	// Spec is the canonical string form, "<kind>:<selector>:p<q>:<dur>".
	Spec string
}

// ParseObjective parses "<kind>:<selector>:p<quantile>:<threshold>",
// e.g. "phase:ba:p99:250ms" or "variant:4.1:p95:1s". Quantiles accept
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

// SLOAlert is one burn-rate edge transition, shaped for the event
// bus's alert kind.
type SLOAlert struct {
	Objective       string
	ShortBurn       float64
	LongBurn        float64
	ExemplarTrace   string
	ExemplarSession string
	Message         string
	Cleared         bool
}

// SLOConfig parameterizes the engine.
type SLOConfig struct {
	Objectives []Objective
	// ShortWindow and LongWindow are rolling window lengths in ticks
	// (defaults 2 and 12). The caller owns the ticker; windows scale
	// with its period.
	ShortWindow int
	LongWindow  int
	// OnAlert receives edge transitions, called from Tick without
	// engine locks held.
	OnAlert func(SLOAlert)
}

// sloState is one objective's runtime: its histogram (bucketed around
// the threshold so the over-threshold fraction is exact at the
// boundary), the snapshot ring the windows difference over, and the
// edge-trigger latch.
type sloState struct {
	obj  Objective
	hist *obs.Histogram

	// mu guards the exemplar and the Status-visible rolling results.
	mu              sync.Mutex
	exemplarTrace   string
	exemplarSession string
	firing          bool
	short           float64
	long            float64

	// Owned by Tick (single caller): the snapshot ring.
	ring   []obs.HistSnapshot
	pos    int
	filled int
}

// SLOEngine evaluates the objectives. Observe is lock-free on the hot
// path (histogram atomics plus one small exemplar mutex on breaching
// samples); Tick is called by exactly one goroutine.
type SLOEngine struct {
	cfg    SLOConfig
	states []*sloState
	byKey  map[string][]*sloState // "kind:selector" -> objectives
}

// NewSLOEngine builds the engine; nil when no objectives are
// configured.
func NewSLOEngine(cfg SLOConfig) *SLOEngine {
	if len(cfg.Objectives) == 0 {
		return nil
	}
	if cfg.ShortWindow <= 0 {
		cfg.ShortWindow = 2
	}
	if cfg.LongWindow <= cfg.ShortWindow {
		cfg.LongWindow = 12
		if cfg.LongWindow <= cfg.ShortWindow {
			cfg.LongWindow = cfg.ShortWindow * 6
		}
	}
	e := &SLOEngine{cfg: cfg, byKey: make(map[string][]*sloState)}
	for _, o := range cfg.Objectives {
		t := o.Threshold.Seconds()
		st := &sloState{
			obj: o,
			// Threshold-relative bounds with the threshold itself a bucket
			// boundary: FractionAbove(threshold) is then exact, not
			// interpolated.
			hist: obs.NewHistogram([]float64{t / 8, t / 4, t / 2, t * 3 / 4, t, t * 3 / 2, t * 2, t * 4, t * 8}),
			ring: make([]obs.HistSnapshot, cfg.LongWindow+1),
			// The empty snapshot is the tick-zero baseline, so samples
			// observed before the first tick count toward the first
			// window instead of vanishing into the baseline.
			pos:    1,
			filled: 1,
		}
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
	states := e.byKey[kind+":"+selector]
	for _, st := range states {
		v := d.Seconds()
		if failed {
			// Past every finite bucket: lands in the overflow bucket.
			v = st.obj.Threshold.Seconds() * 16
		}
		st.hist.Observe(v)
		if failed || d > st.obj.Threshold {
			st.mu.Lock()
			st.exemplarTrace = traceID
			st.exemplarSession = session
			st.mu.Unlock()
		}
	}
}

// Tick advances every objective's windows by one interval and emits
// edge transitions. Call from a single goroutine.
func (e *SLOEngine) Tick() {
	if e == nil {
		return
	}
	var fired []SLOAlert
	for _, st := range e.states {
		snap := st.hist.Snapshot()
		st.ring[st.pos] = snap
		st.pos = (st.pos + 1) % len(st.ring)
		if st.filled < len(st.ring) {
			st.filled++
		}
		budget := 1 - st.obj.Quantile
		burn := func(window int) float64 {
			avail := st.filled - 1
			if avail <= 0 {
				return 0
			}
			if window > avail {
				window = avail
			}
			// The snapshot taken `window` ticks ago sits `window+1` slots
			// behind pos (pos already advanced past the current snapshot).
			idx := (st.pos - 1 - window + 2*len(st.ring)) % len(st.ring)
			delta := snap.Sub(st.ring[idx])
			if delta.Total() == 0 {
				return 0
			}
			return delta.FractionAbove(st.obj.Threshold.Seconds()) / budget
		}
		short, long := burn(e.cfg.ShortWindow), burn(e.cfg.LongWindow)
		over := short >= 1 && long >= 1

		st.mu.Lock()
		st.short, st.long = short, long
		tr, sess := st.exemplarTrace, st.exemplarSession
		edge := over != st.firing
		st.firing = over
		st.mu.Unlock()
		if !edge {
			continue
		}
		if over {
			fired = append(fired, SLOAlert{
				Objective: st.obj.Spec, ShortBurn: short, LongBurn: long,
				ExemplarTrace: tr, ExemplarSession: sess,
				Message: fmt.Sprintf("slo %s burning %.1fx budget (short) / %.1fx (long); exemplar %s",
					st.obj.Spec, short, long, orNone(sess)),
			})
		} else {
			fired = append(fired, SLOAlert{
				Objective: st.obj.Spec, ShortBurn: short, LongBurn: long, Cleared: true,
				Message: fmt.Sprintf("slo %s back under budget (short %.1fx, long %.1fx)", st.obj.Spec, short, long),
			})
		}
	}
	if e.cfg.OnAlert != nil {
		for _, a := range fired {
			e.cfg.OnAlert(a)
		}
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
			Samples:         st.hist.Count(),
		}
		st.mu.Unlock()
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Objective < out[j].Objective })
	return out
}

// Windows reports the configured window lengths in ticks.
func (e *SLOEngine) Windows() (short, long int) {
	if e == nil {
		return 0, 0
	}
	return e.cfg.ShortWindow, e.cfg.LongWindow
}

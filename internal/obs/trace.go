// Package obs is the zero-dependency observability core of the farm:
// trace ids, monotonic-clock spans aggregated into bounded per-play
// traces, and a lock-cheap registry of counters/gauges/histograms that
// internal/service re-exports in Prometheus text format.
//
// The package deliberately depends on nothing but the standard library,
// and its hot paths (Observe, Counter.Add, Histogram.Observe) are a
// mutex-guarded map hit or a single atomic — cheap enough to leave on
// for every play the farm hosts.
package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// TraceID identifies one distributed play across every daemon that
// co-hosts it. Ids are derived, not random, so the same session replays
// to the same id.
type TraceID string

// DeriveTraceID derives a stable 16-hex-digit trace id from the given
// parts (typically session id and seed) via FNV-1a.
func DeriveTraceID(parts ...string) TraceID {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return TraceID(fmt.Sprintf("%016x", h.Sum64()))
}

// Span is one named interval on a play's timeline. Protocol phases are
// aggregated spans: StartUS/EndUS bracket the first and last observation
// of the phase and Count tallies how many messages landed in it. Offsets
// are microseconds on the owning origin's monotonic clock, so spans from
// different daemons order within an origin but only approximately across
// origins.
type Span struct {
	// Name is the span's phase or stage name ("ba", "mpc.mul", "run").
	Name string `json:"name"`
	// Origin is the daemon-side label of where the span was recorded
	// ("local", or the peer address after stitching).
	Origin string `json:"origin,omitempty"`
	// StartUS/EndUS are microseconds since the origin's trace started.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Count is how many observations the span aggregates.
	Count int64 `json:"count"`
	// Attrs carries span attributes (e.g. cpu_ms on the run span).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's extent.
func (s Span) Duration() time.Duration {
	return time.Duration(s.EndUS-s.StartUS) * time.Microsecond
}

// DefaultSpanLimit bounds a play trace when NewPlayTrace is given no
// explicit limit: distinct (name, origin) spans beyond it are dropped
// (and counted), never grown without bound.
const DefaultSpanLimit = 256

// PlayTrace is one session's bounded trace buffer. All methods are
// nil-receiver safe, so a farm with tracing disabled threads a nil
// trace through the same code paths at zero cost.
type PlayTrace struct {
	id    TraceID
	start time.Time
	limit int

	mu      sync.Mutex
	spans   map[spanKey]*Span
	order   []spanKey // first-seen key order
	foreign []Span    // stitched-in spans from other daemons
	dropped int64
}

// NewPlayTrace creates a trace with the given id, bounded to limit
// distinct spans (0: DefaultSpanLimit).
func NewPlayTrace(id TraceID, limit int) *PlayTrace {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &PlayTrace{
		id:    id,
		start: time.Now(),
		limit: limit,
		spans: make(map[spanKey]*Span),
	}
}

// ID returns the trace id ("" on a nil trace).
func (t *PlayTrace) ID() TraceID {
	if t == nil {
		return ""
	}
	return t.id
}

// nowUS is the monotonic offset of "now" on this trace's clock.
func (t *PlayTrace) nowUS() int64 { return time.Since(t.start).Microseconds() }

// NowUS exposes the trace's clock (0 on a nil trace) so external
// collectors can stamp buffered observations on the same timeline.
func (t *PlayTrace) NowUS() int64 {
	if t == nil {
		return 0
	}
	return t.nowUS()
}

// spanKey is the comparable map key of a span. A struct key (rather
// than a concatenated string) keeps the per-message hot path
// allocation-free.
type spanKey struct{ origin, name string }

// get returns the span for (name, origin), creating it if the bound
// allows; nil when the trace is full. Callers hold t.mu.
func (t *PlayTrace) get(name, origin string, at int64) *Span {
	key := spanKey{origin: origin, name: name}
	if s, ok := t.spans[key]; ok {
		return s
	}
	if len(t.spans)+len(t.foreign) >= t.limit {
		t.dropped++
		return nil
	}
	s := &Span{Name: name, Origin: origin, StartUS: at, EndUS: at}
	t.spans[key] = s
	t.order = append(t.order, key)
	return s
}

// Observe records one observation of a phase: the phase span's extent
// widens to now and its count increments. This is the hot path fed by
// per-message classification.
func (t *PlayTrace) Observe(name, origin string) {
	if t == nil {
		return
	}
	now := t.nowUS()
	t.mu.Lock()
	if s := t.get(name, origin, now); s != nil {
		s.EndUS = now
		s.Count++
	}
	t.mu.Unlock()
}

// ObserveN folds n observations into the (name, origin) span at once —
// the cheap alternative to n Observe calls when a counter is known
// after the fact (e.g. the scheduler's step total at the end of a run).
func (t *PlayTrace) ObserveN(name, origin string, n int64) {
	if t == nil || n <= 0 {
		return
	}
	now := t.nowUS()
	t.mu.Lock()
	if s := t.get(name, origin, now); s != nil {
		s.EndUS = now
		s.Count += n
	}
	t.mu.Unlock()
}

// ObserveRange folds n observations spanning [startUS, endUS] of the
// trace's clock into the (name, origin) span — the bulk path for
// collectors that buffer observations lock-free outside the trace and
// fold them in once per run.
func (t *PlayTrace) ObserveRange(name, origin string, n, startUS, endUS int64) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	if s := t.get(name, origin, startUS); s != nil {
		if startUS < s.StartUS {
			s.StartUS = startUS
		}
		if endUS > s.EndUS {
			s.EndUS = endUS
		}
		s.Count += n
	}
	t.mu.Unlock()
}

// Begin opens an explicit span and returns its closer; use it for
// stages with a true start and end (the run itself, move resolution).
func (t *PlayTrace) Begin(name, origin string) func() {
	if t == nil {
		return func() {}
	}
	now := t.nowUS()
	t.mu.Lock()
	s := t.get(name, origin, now)
	if s != nil {
		s.Count++
	}
	t.mu.Unlock()
	return func() {
		if s == nil {
			return
		}
		end := t.nowUS()
		t.mu.Lock()
		s.EndUS = end
		t.mu.Unlock()
	}
}

// Annotate attaches a key=value attribute to the (name, origin) span,
// creating the span if needed and the bound allows.
func (t *PlayTrace) Annotate(name, origin, key, value string) {
	if t == nil {
		return
	}
	now := t.nowUS()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.get(name, origin, now)
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[key] = value
}

// Merge stitches completed spans from another daemon into this trace
// (the coordinator's finish path). Spans beyond the bound are dropped
// and counted.
func (t *PlayTrace) Merge(spans []Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range spans {
		if len(t.spans)+len(t.foreign) >= t.limit {
			t.dropped += int64(len(spans) - i)
			break
		}
		if s.Attrs != nil {
			attrs := make(map[string]string, len(s.Attrs))
			for k, v := range s.Attrs {
				attrs[k] = v
			}
			s.Attrs = attrs
		}
		t.foreign = append(t.foreign, s)
	}
}

// Dropped returns how many observations or spans the bound discarded.
func (t *PlayTrace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns a copy of every span, locally recorded ones first in
// first-seen order, then stitched foreign spans, both sub-sorted by
// start offset within an origin for a stable render.
func (t *PlayTrace) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.order)+len(t.foreign))
	for _, key := range t.order {
		s := *t.spans[key]
		if s.Attrs != nil {
			attrs := make(map[string]string, len(s.Attrs))
			for k, v := range s.Attrs {
				attrs[k] = v
			}
			s.Attrs = attrs
		}
		out = append(out, s)
	}
	out = append(out, t.foreign...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].StartUS < out[j].StartUS
	})
	return out
}

// Package obs is the observability core of the farm:
// trace ids, monotonic-clock spans aggregated into bounded per-play
// traces, and a lock-cheap registry of counters/gauges/histograms that
// internal/service re-exports in Prometheus text format.
//
// The package deliberately depends on nothing but the standard library
// and the api contract (itself standard-library only), whose span shape
// a play trace records directly. Its hot paths (Observe, Counter.Add,
// Histogram.Observe) are a mutex-guarded map hit or a single atomic —
// cheap enough to leave on for every play the farm hosts.
package obs

import (
	"fmt"
	"hash/fnv"
	"maps"
	"sort"
	"sync"
	"time"

	"asyncmediator/api"
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

// spanLimit bounds a play trace: distinct (name, origin) spans beyond it
// are dropped (and counted), never grown without bound.
const spanLimit = 256

// PlayTrace is one session's bounded trace buffer. It records spans in
// their wire shape (api.TraceSpan), so View hands out the trace as the
// API serves and the retention ring stores it. All methods are
// nil-receiver safe, so a farm with tracing disabled threads a nil trace
// through the same code paths at zero cost.
type PlayTrace struct {
	id    TraceID
	start time.Time

	mu      sync.Mutex
	spans   map[spanKey]*api.TraceSpan
	order   []spanKey       // first-seen key order
	foreign []api.TraceSpan // stitched-in spans from other daemons
	dropped int64
}

// NewPlayTrace creates a trace with the given id, bounded to spanLimit
// distinct spans.
func NewPlayTrace(id TraceID) *PlayTrace {
	return &PlayTrace{
		id:    id,
		start: time.Now(),
		spans: make(map[spanKey]*api.TraceSpan),
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
func (t *PlayTrace) get(name, origin string, at int64) *api.TraceSpan {
	key := spanKey{origin: origin, name: name}
	if s, ok := t.spans[key]; ok {
		return s
	}
	if len(t.spans)+len(t.foreign) >= spanLimit {
		t.dropped++
		return nil
	}
	s := &api.TraceSpan{Name: name, Origin: origin, StartUS: at, EndUS: at}
	t.spans[key] = s
	t.order = append(t.order, key)
	return s
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

// Merge stitches a peer daemon's finished trace into this one (the
// coordinator's finish path), stamping every span with origin, the
// peer's address. Spans beyond the bound are dropped and counted.
func (t *PlayTrace) Merge(v *api.TraceView, origin string) {
	if t == nil || v == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range v.Spans {
		if len(t.spans)+len(t.foreign) >= spanLimit {
			t.dropped += int64(len(v.Spans) - i)
			break
		}
		s.Origin = origin
		s.Attrs = maps.Clone(s.Attrs)
		t.foreign = append(t.foreign, s)
	}
}

// View returns the trace in its wire shape (nil on a nil trace): a copy
// of every span, locally recorded ones first in first-seen order, then
// stitched foreign spans, ordered by origin and then by start offset for
// a stable render.
func (t *PlayTrace) View() *api.TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]api.TraceSpan, 0, len(t.order)+len(t.foreign))
	for _, key := range t.order {
		s := *t.spans[key]
		s.Attrs = maps.Clone(s.Attrs)
		spans = append(spans, s)
	}
	spans = append(spans, t.foreign...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Origin != spans[j].Origin {
			return spans[i].Origin < spans[j].Origin
		}
		return spans[i].StartUS < spans[j].StartUS
	})
	return &api.TraceView{TraceID: string(t.id), Spans: spans, Dropped: t.dropped}
}

package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Updates are one atomic
// add; reads happen only at scrape time.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error and ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Add shifts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observe is a linear
// scan over the bounds plus two atomics — no locks.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf
	count  atomic.Int64
	sum    Gauge
}

// newHistogram builds a histogram with the given upper bounds (sorted
// ascending).
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a Histogram's counters: what
// a scrape renders and what quantile estimates read.
type HistSnapshot struct {
	Bounds []float64 // upper bounds, shared (do not mutate)
	Counts []int64   // one per bound, plus +Inf
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's counters. Each counter is one atomic
// load; concurrent Observes may land between loads, so Count can drift
// from the bucket total by in-flight samples.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Total sums the bucket counts (the window's sample count).
func (s HistSnapshot) Total() int64 {
	t := int64(0)
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Quantile estimates the q-quantile of the snapshot's samples,
// interpolating linearly within the bucket the rank falls in; a rank in
// the overflow bucket clamps to the highest finite bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := int64(0)
	for i, c := range s.Counts {
		if float64(cum+c) < target {
			cum += c
			continue
		}
		if i >= len(s.Bounds) {
			break // overflow bucket: clamp below
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (target - float64(cum)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// MaxLabelValues bounds the distinct label values of every vector: each
// value is one exposed series (a whole bucket ladder for a histogram),
// and an unbounded label set is how expositions melt scrapers. Values
// beyond the bound aggregate under OverflowLabel.
const MaxLabelValues = 32

// OverflowLabel is the catch-all label value of a full vector.
const OverflowLabel = "_other"

// vec is the child table behind CounterVec and HistogramVec: one metric
// per value of a single label, minted on first use. Lookups take the
// table lock; updates on the returned child touch only its own atomics.
type vec[T any] struct {
	mu       sync.Mutex
	children map[string]*T
	mint     func() *T
}

// With returns the child for one label value — OverflowLabel's once the
// family holds MaxLabelValues values.
func (v *vec[T]) With(value string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[value]
	if c == nil && len(v.children) >= MaxLabelValues {
		value = OverflowLabel
		c = v.children[value]
	}
	if c == nil {
		if v.children == nil {
			v.children = make(map[string]*T)
		}
		c = v.mint()
		v.children[value] = c
	}
	return c
}

// readVec reads every child of a family: label value -> read(child).
func readVec[T, V any](v *vec[T], read func(*T) V) map[string]V {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]V, len(v.children))
	for k, c := range v.children {
		out[k] = read(c)
	}
	return out
}

// CounterVec is a family of counters keyed by one label.
type CounterVec struct{ vec[Counter] }

// Values returns the current total per label value.
func (c *CounterVec) Values() map[string]int64 { return readVec(&c.vec, (*Counter).Value) }

// HistogramVec is a family of same-bounds histograms keyed by one label.
type HistogramVec struct{ vec[Histogram] }

// Snapshots returns a point-in-time copy of every child histogram.
func (h *HistogramVec) Snapshots() map[string]HistSnapshot {
	return readVec(&h.vec, (*Histogram).Snapshot)
}

// metric is one registered series, or one single-label family of them.
type metric struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"

	counter *Counter
	hist    *Histogram
	fn      func() float64 // pull-time value (wins over counter)

	label string // the family's label name; "" for a plain series
	cvec  *CounterVec
	hvec  *HistogramVec
	vecFn func() map[string]float64 // pull-time family
}

// Registry is an ordered set of named metrics rendered in Prometheus
// text format. Registration takes the registry lock; metric updates
// touch only the metric's own atomics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register adds m unless the name is taken, returning the winner.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[m.name]; ok {
		return prev
	}
	r.metrics = append(r.metrics, m)
	r.byName[m.name] = m
	return m
}

// Counter registers (or returns the existing) counter `name`.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, help: help, typ: "counter", counter: &Counter{}})
	return m.counter
}

// Histogram registers (or returns the existing) histogram `name` with
// the given upper bounds (sorted ascending).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(&metric{name: name, help: help, typ: "histogram", hist: newHistogram(bounds)})
	return m.hist
}

// CounterFunc registers a counter whose value is pulled at scrape time
// (for totals owned by another subsystem's own atomics).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "counter", fn: fn})
}

// GaugeFunc registers a gauge whose value is pulled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterVec registers (or returns the existing) counter family `name`,
// one series per value of `label`.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	cv := &CounterVec{vec[Counter]{mint: func() *Counter { return &Counter{} }}}
	m := r.register(&metric{name: name, help: help, typ: "counter", label: label, cvec: cv})
	return m.cvec
}

// HistogramVec registers (or returns the existing) histogram family
// `name`, one histogram over `bounds` per value of `label`.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	hv := &HistogramVec{vec[Histogram]{mint: func() *Histogram { return newHistogram(bounds) }}}
	m := r.register(&metric{name: name, help: help, typ: "histogram", label: label, hvec: hv})
	return m.hvec
}

// GaugeVecFunc registers a gauge family pulled at scrape time: fn returns
// the current value per label value (per-peer or per-state values owned
// by another subsystem).
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", label: label, vecFn: fn})
}

// WritePrometheus renders every metric in registration order in the
// Prometheus text exposition format; a family's series follow in sorted
// label-value order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, escapeHelp(m.help), m.name, m.typ)
		switch {
		case m.fn != nil:
			fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
		case m.counter != nil:
			fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case m.hist != nil:
			writeHistogram(w, m.name, "", m.hist.Snapshot())
		case m.cvec != nil:
			vals := m.cvec.Values()
			for _, v := range sortedKeys(vals) {
				fmt.Fprintf(w, "%s{%s} %d\n", m.name, labelPair(m.label, v), vals[v])
			}
		case m.hvec != nil:
			snaps := m.hvec.Snapshots()
			for _, v := range sortedKeys(snaps) {
				writeHistogram(w, m.name, labelPair(m.label, v), snaps[v])
			}
		case m.vecFn != nil:
			vals := capLabelValues(m.vecFn())
			for _, v := range sortedKeys(vals) {
				fmt.Fprintf(w, "%s{%s} %s\n", m.name, labelPair(m.label, v), formatFloat(vals[v]))
			}
		}
	}
}

// writeHistogram renders one histogram's cumulative buckets, sum and
// count; labels is the family's `name="value"` pair, or "" for a plain
// histogram.
func writeHistogram(w io.Writer, name, labels string, s HistSnapshot) {
	sep, braced := "", ""
	if labels != "" {
		sep, braced = labels+",", "{"+labels+"}"
	}
	cum := int64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, sep, formatFloat(b), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, s.Count)
}

// capLabelValues applies the vector bound to a pulled family: the first
// MaxLabelValues values in sorted order keep their series, the rest sum
// under OverflowLabel.
func capLabelValues(vals map[string]float64) map[string]float64 {
	if len(vals) <= MaxLabelValues {
		return vals
	}
	out := make(map[string]float64, MaxLabelValues+1)
	for i, k := range sortedKeys(vals) {
		if i < MaxLabelValues {
			out[k] = vals[k]
		} else {
			out[OverflowLabel] += vals[k]
		}
	}
	return out
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// label rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// labelEscaper applies the exposition format's label-value escaping
// (backslash, double quote, newline).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelPair renders `name="value"`, escaped.
func labelPair(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// formatFloat renders a float the way Prometheus clients expect.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp applies the text exposition format's HELP escaping:
// backslash and newline are the only characters that would corrupt the
// line-oriented format.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

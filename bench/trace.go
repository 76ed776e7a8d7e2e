package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/proto"
)

// span is one interval at a layer boundary. Parent is the index of the
// span that caused it (-1 for a root); spans of one play share Play.
// Busy spans ("proto.rbc", "async.sched") aggregate every delivery of
// one family within a play into a single span, so a play costs a dozen
// spans however many messages it moves: Start is the first observation,
// End is Start plus the busy time, Count the observations.
type span struct {
	Name   string `json:"name"`
	Play   int    `json:"play"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

// maxSpans bounds the in-memory trace; past it, spans are counted as
// dropped rather than kept.
const maxSpans = 400_000

// tracer keeps the traced run's spans in memory. It records only while
// on is set, so one booted farm serves both the untraced and the traced
// half of a traced run.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int
	// handler[k] lists, in arrival order, the intervals the farm's HTTP
	// handler spent on requests of bench client k. Client k issues one
	// request at a time, so its j-th call matches handler[k][j].
	handler map[int][]interval
}

type interval struct{ start, end time.Time }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), handler: make(map[int][]interval)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add appends spans whose Parent fields index into the batch itself
// (-1: root) and rebases them onto the global list.
func (t *tracer) add(batch []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans)+len(batch) > maxSpans {
		t.dropped += len(batch)
		return
	}
	base := len(t.spans)
	for _, s := range batch {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// clientPrefix is the request-id prefix of bench client k; the farm
// echoes request ids, which is how the handler shim tells the clients'
// requests from a cluster peer's.
func clientPrefix(k int) string { return "bc" + strconv.Itoa(k) }

func clientOf(requestID string) int {
	rest, ok := strings.CutPrefix(requestID, "bc")
	if !ok {
		return -1
	}
	num, _, _ := strings.Cut(rest, "-")
	k, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return k
}

// wrapHandler is the shim on the farm's HTTP seam: it times every
// request of a bench client from outside Service.Handler().
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if k := clientOf(r.Header.Get(api.RequestIDHeader)); k >= 0 {
			t.mu.Lock()
			t.handler[k] = append(t.handler[k], interval{start, end})
			t.mu.Unlock()
		}
	})
}

// takeHandler pops the oldest unclaimed handler interval of client k.
// The handler shim appends after ServeHTTP returns, which can be a
// moment after the client has read the response, so the pop waits
// briefly for it.
func (t *tracer) takeHandler(k int) (interval, bool) {
	for tries := 0; tries < 200; tries++ {
		t.mu.Lock()
		if q := t.handler[k]; len(q) > 0 {
			iv := q[0]
			t.handler[k] = q[1:]
			t.mu.Unlock()
			return iv, true
		}
		t.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
	return interval{}, false
}

// The protocol families per-delivery time is bucketed into. The
// innermost recognised segment of a hierarchical instance id
// ("ct/core/rbc/2") names the family, as in the farm's own phase spans.
const (
	famMPC = iota
	famACS
	famAVSS
	famRBC
	famBA
	famOther
	numFam
)

var famNames = [numFam]string{"mpc", "acs", "avss", "rbc", "ba", "other"}

func familyOf(instance string) int {
	for end := len(instance); end > 0; {
		cut := strings.LastIndexByte(instance[:end], '/')
		switch instance[cut+1 : end] {
		case "rbc":
			return famRBC
		case "ba":
			return famBA
		case "in":
			return famAVSS
		case "core":
			return famACS
		case "out", "rbopen", "mul", "mulcs", "rbmul", "rbmulcs", "rho", "w":
			return famMPC
		}
		if cut < 0 {
			break
		}
		end = cut
	}
	return famOther
}

func familyOfPayload(payload any) int {
	switch e := payload.(type) {
	case proto.Envelope:
		return familyOf(e.Instance)
	case *proto.Envelope:
		return familyOf(e.Instance)
	}
	return famOther
}

// playShim is the timing shim of one simulated play: it wraps every
// process (core.RunConfig.Wrap) and the scheduler, and buckets the time
// spent inside them. The simulator runs a play on one goroutine, so the
// shim needs no synchronization.
type playShim struct {
	fam [numFam]struct {
		busy  time.Duration
		msgs  int
		first time.Time
	}
	startBusy  time.Duration
	startFirst time.Time
	sched      time.Duration
	schedFirst time.Time
	steps      int
}

type timedProc struct {
	inner async.Process
	s     *playShim
}

func (p timedProc) Start(env *async.Env) {
	t0 := time.Now()
	p.inner.Start(env)
	if p.s.startFirst.IsZero() {
		p.s.startFirst = t0
	}
	p.s.startBusy += time.Since(t0)
}

func (p timedProc) Deliver(env *async.Env, msg async.Message) {
	f := &p.s.fam[familyOfPayload(msg.Payload)]
	t0 := time.Now()
	p.inner.Deliver(env, msg)
	f.busy += time.Since(t0)
	if f.msgs == 0 {
		f.first = t0
	}
	f.msgs++
}

// install puts the shim on a run's two seams.
func (s *playShim) install(cfg *core.RunConfig) {
	cfg.Wrap = func(_ int, p async.Process) async.Process { return timedProc{inner: p, s: s} }
	cfg.Scheduler = timedSched{inner: cfg.Scheduler, s: s}
}

type timedSched struct {
	inner async.Scheduler
	s     *playShim
}

func (t timedSched) Next(v *async.View) (async.Event, bool) {
	t0 := time.Now()
	ev, ok := t.inner.Next(v)
	t.s.sched += time.Since(t0)
	if t.s.steps == 0 {
		t.s.schedFirst = t0
	}
	t.s.steps++
	return ev, ok
}

// spanRun names the root span of one core.Run call.
const spanRun = "core.run"

// spans renders one shimmed core.Run as a root span (Count: messages
// sent) with one busy child per family; the root's self time is what
// the async runtime itself cost.
func (s *playShim) spans(t *tracer, play, msgs int, start, end time.Time) []span {
	out := []span{{Name: spanRun, Play: play, Parent: -1, Start: t.ns(start), End: t.ns(end), Count: msgs}}
	busy := func(name string, first time.Time, d time.Duration, n int) {
		if n == 0 {
			return
		}
		b := t.ns(first)
		out = append(out, span{Name: name, Play: play, Parent: 0, Start: b, End: b + int64(d), Count: n})
	}
	busy("async.sched", s.schedFirst, s.sched, s.steps)
	busy("proto.start", s.startFirst, s.startBusy, 1)
	for f := range s.fam {
		busy("proto."+famNames[f], s.fam[f].first, s.fam[f].busy, s.fam[f].msgs)
	}
	return out
}

// selfTree is the self-time breakdown beneath one kind of root span.
type selfTree struct {
	root     string
	plays    int
	total    time.Duration // sum of the root spans
	coverage float64       // sum of self times / total
	rows     []selfRow     // largest first
}

type selfRow struct {
	name string
	self time.Duration
}

// selfTables folds the trace into one breakdown per root span name. A
// span's self time is its duration minus the part its children cover.
// Children of one span never overlap here (calls are sequential, busy
// spans are sums), so the cover is the sum of child durations; self
// time is clipped at zero.
func selfTables(spans []span) []selfTree {
	child := make([]int64, len(spans))
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		rootOf[i] = i
		if s.Parent >= 0 { // parents precede their children
			child[s.Parent] += s.End - s.Start
			rootOf[i] = rootOf[s.Parent]
		}
	}
	trees := map[string]*selfTree{}
	self := map[string]map[string]time.Duration{}
	for i, s := range spans {
		root := spans[rootOf[i]].Name
		t := trees[root]
		if t == nil {
			t = &selfTree{root: root}
			trees[root], self[root] = t, map[string]time.Duration{}
		}
		d := s.End - s.Start
		if s.Parent < 0 {
			t.plays++
			t.total += time.Duration(d)
		}
		if own := d - child[i]; own > 0 {
			self[root][s.Name] += time.Duration(own)
		}
	}
	var out []selfTree
	for root, t := range trees {
		var sum time.Duration
		for name, d := range self[root] {
			t.rows = append(t.rows, selfRow{name, d})
			sum += d
		}
		sort.Slice(t.rows, func(i, j int) bool { return t.rows[i].self > t.rows[j].self })
		if t.total > 0 {
			t.coverage = float64(sum) / float64(t.total)
		}
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].root < out[j].root })
	return out
}

// traceFile is what a traced run writes to bench/out/.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Dropped: t.dropped, Spans: t.spans}
	b, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}

package service

import (
	"strings"
	"sync/atomic"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/obs"
	"asyncmediator/internal/proto"
)

// originLocal labels spans recorded by the daemon serving the session.
// A co-hosting peer records its own spans as "local" too; the
// coordinator rewrites them to the peer's address when stitching, so
// the final timeline distinguishes daemons without the peers having to
// know how the coordinator names them.
const originLocal = "local"

// The named protocol phases, indexed by the phase* constants below.
// phaseProto is the catch-all for unclassified instances.
var phaseNames = [...]string{
	"ba", "avss.share", "acs.core", "mpc.open", "mpc.mul", "mpc.mask", "proto",
}

const (
	phaseBA = iota
	phaseShare
	phaseCore
	phaseOpen
	phaseMul
	phaseMask
	phaseProto
)

// phaseIdx classifies a protocol instance id into its phase index. The
// cheap-talk tower's instance ids are hierarchical paths under the root
// "ct" ("ct/in/3/1", "ct/core/ba/2", "ct/mulcs/5"); the innermost
// recognised segment names the phase, so children inherit from the
// sub-protocol that spawned them. It walks segments right to left
// without allocating — this sits on the per-message hot path.
func phaseIdx(instance string) int {
	for end := len(instance); end > 0; {
		cut := strings.LastIndexByte(instance[:end], '/')
		switch instance[cut+1 : end] {
		case "ba":
			return phaseBA
		case "in":
			return phaseShare
		case "core":
			return phaseCore
		case "out", "rbopen":
			return phaseOpen
		case "mul", "mulcs", "rbmul", "rbmulcs":
			return phaseMul
		case "rho", "w":
			return phaseMask
		}
		if cut < 0 {
			break
		}
		end = cut
	}
	return phaseProto
}

// phaseOf names the phase of a protocol instance id.
func phaseOf(instance string) string { return phaseNames[phaseIdx(instance)] }

// phaseBuf is one wrapped process's private phase tally: per phase, a
// count and the first/last observation offsets on the play's trace
// clock. The fields are atomics not for write contention — each buffer
// has a single writer, the goroutine driving its process — but so the
// end-of-run flush (which on a lingering cluster node can overlap a
// late relay delivery) reads them race-free.
//
// Only counts is touched on every delivery; it is laid out first so the
// steady-state hook dirties a single cache line. The clock offsets are
// sampled (every clockSampleEvery-th observation of a phase), keeping
// the trace's timeline off the per-message critical path: first is
// exact, last trails the true end of a phase by at most
// clockSampleEvery-1 observations.
type phaseBuf struct {
	counts [len(phaseNames)]atomic.Int64
	first  [len(phaseNames)]atomic.Int64
	last   [len(phaseNames)]atomic.Int64
}

// clockSampleEvery is the per-phase observation stride between clock
// reads in the delivery hook. Must be a power of two.
const clockSampleEvery = 16

// playCollector funnels per-process phase buffers into one play trace.
// The per-message path (tracedProc.Deliver) touches only its own
// buffer — no lock, no map lookup, no allocation; spans materialize in
// flush, once per process per phase, when the run ends. That keeps the
// cost of always-on tracing within the farm's throughput budget.
type playCollector struct {
	tr   *obs.PlayTrace
	bufs []*phaseBuf
}

// newCollector returns a collector feeding tr, or nil when tracing is
// off so the nil collector's wrap() disables decoration entirely.
func newCollector(tr *obs.PlayTrace) *playCollector {
	if tr == nil {
		return nil
	}
	return &playCollector{tr: tr}
}

// wrap is the collector's core.RunConfig.Wrap hook (nil on a nil
// collector, so BuildProcs skips the decoration). BuildProcs calls it
// sequentially, so appending to bufs needs no lock.
func (c *playCollector) wrap() func(int, async.Process) async.Process {
	if c == nil {
		return nil
	}
	return func(_ int, p async.Process) async.Process {
		buf := &phaseBuf{}
		c.bufs = append(c.bufs, buf)
		return tracedProc{inner: p, tr: c.tr, buf: buf}
	}
}

// flush folds every process's buffer into the trace. Call it once the
// run has ended; deliveries that land on lingering cluster transports
// after the flush are relay traffic and intentionally uncounted.
func (c *playCollector) flush() {
	if c == nil {
		return
	}
	for _, b := range c.bufs {
		for i := range phaseNames {
			if n := b.counts[i].Load(); n > 0 {
				c.tr.ObserveRange(phaseNames[i], originLocal, n, b.first[i].Load(), b.last[i].Load())
			}
		}
	}
}

// tracedProc decorates a compiled player process, classifying every
// delivered protocol envelope into its phase buffer. It is shared by
// all three backends (sim, wire, cluster) — each owns the processes
// before handing them to a runtime.
type tracedProc struct {
	inner async.Process
	tr    *obs.PlayTrace
	buf   *phaseBuf
}

func (t tracedProc) Start(env *async.Env) { t.inner.Start(env) }

func (t tracedProc) Deliver(env *async.Env, msg async.Message) {
	if e, ok := msg.Payload.(*proto.Envelope); ok && e != nil {
		i := phaseIdx(e.Instance)
		if n := t.buf.counts[i].Add(1); n&(clockSampleEvery-1) == 1 {
			now := t.tr.NowUS()
			if n == 1 {
				t.buf.first[i].Store(now)
			}
			t.buf.last[i].Store(now)
		}
	}
	t.inner.Deliver(env, msg)
}

// traceView converts a play trace to its wire shape (nil in, nil out).
func traceView(tr *obs.PlayTrace) *api.TraceView {
	if tr == nil {
		return nil
	}
	spans := tr.Snapshot()
	v := &api.TraceView{
		TraceID: string(tr.ID()),
		Spans:   make([]api.TraceSpan, len(spans)),
		Dropped: tr.Dropped(),
	}
	for i, s := range spans {
		v.Spans[i] = api.TraceSpan{
			Name:    s.Name,
			Origin:  s.Origin,
			StartUS: s.StartUS,
			EndUS:   s.EndUS,
			Count:   s.Count,
			Attrs:   s.Attrs,
		}
	}
	return v
}

// obsSpans converts a peer's wire-shape trace back to spans, rewriting
// every origin to the peer's address — the coordinator's stitch step.
func obsSpans(v *api.TraceView, origin string) []obs.Span {
	if v == nil {
		return nil
	}
	out := make([]obs.Span, len(v.Spans))
	for i, s := range v.Spans {
		out[i] = obs.Span{
			Name:    s.Name,
			Origin:  origin,
			StartUS: s.StartUS,
			EndUS:   s.EndUS,
			Count:   s.Count,
			Attrs:   s.Attrs,
		}
	}
	return out
}

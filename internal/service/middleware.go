package service

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/store"
)

// reqCounter numbers generated request ids process-wide.
var reqCounter atomic.Int64

// reqEpoch distinguishes the ids of different daemon generations, so two
// restarts of one farm never log the same id for different requests.
var reqEpoch = time.Now().UnixNano() & 0xffffff

// newRequestID mints a process-unique request id.
func newRequestID() string {
	return fmt.Sprintf("req-%06x-%06d", reqEpoch, reqCounter.Add(1))
}

// statusWriter records the status and size of a response for the request
// log. It deliberately does NOT implement http.Flusher itself: it
// exposes the wrapped writer via Unwrap (the http.ResponseController
// protocol), so streaming support is probed on the real writer rather
// than silently faked by a no-op Flush.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// Unwrap exposes the wrapped writer to http.ResponseController and
// canFlush.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// canFlush reports whether the writer (unwrapped through any middleware
// layers) can stream — the SSE handler's precondition.
func canFlush(w http.ResponseWriter) bool {
	for {
		switch v := w.(type) {
		case http.Flusher:
			return true
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return false
		}
	}
}

// withMiddleware wraps the farm's mux in the /v1 middleware stack, outer
// to inner: panic recovery, request-id injection + propagation,
// structured per-request logging. logf nil disables the request log
// (tests); recovery and request ids are unconditional.
func withMiddleware(h http.Handler, logf func(format string, args ...any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Propagate the caller's request id; inject one when absent. The
		// id is echoed on the response and named in the request's log
		// line.
		id := r.Header.Get(api.RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set(api.RequestIDHeader, id)

		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				// http.ErrAbortHandler is net/http's sanctioned abort: let
				// the server handle it (no envelope, no stack trace).
				if p == http.ErrAbortHandler {
					panic(p)
				}
				// Any other handler panic must not kill the daemon or leak
				// a hung connection: answer with the contract's internal
				// envelope (when nothing was written yet) and always log.
				if sw.status == 0 {
					writeAPIError(sw, api.Errorf(api.CodeInternal, "internal error (request %s)", id))
				}
				if logf != nil {
					logf("http: panic serving %s %s req=%s: %v", r.Method, r.URL.Path, id, p)
				}
				return
			}
			if logf != nil {
				logf("http: %s %s -> %d %dB in %s req=%s",
					r.Method, r.URL.Path, sw.status, sw.bytes, time.Since(start).Round(time.Microsecond), id)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// idemEntry is one cached POST outcome: dupes of the key replay it
// verbatim. done closes when the first request finishes, so concurrent
// dupes wait instead of double-executing.
type idemEntry struct {
	done        chan struct{}
	status      int
	contentType string
	body        []byte
	stored      bool // false: the outcome was transient and not cached
	durable     bool // true: the outcome was put to the record store (a no-op on a memory-only farm)
}

// idemCache is the farm's keyed-response store behind the
// Idempotency-Key header: a bounded FIFO map with single-flight
// semantics per key. With a durable store attached, create responses are
// mirrored to it under the idem- key prefix, so a keyed create replays
// across a daemon restart.
type idemCache struct {
	mu      sync.Mutex
	cap     int
	recs    store.Records[idemRecord] // memory-only on a nil store
	entries map[string]*idemEntry
	order   []string
}

func newIdemCache(cap int, st *store.Store) *idemCache {
	if cap < 1 {
		cap = 1
	}
	return &idemCache{cap: cap, recs: idemRecords(st), entries: make(map[string]*idemEntry)}
}

// recover loads the previous generation's durable keyed responses into
// the cache (as completed entries), so a client retrying a create over a
// daemon restart replays instead of re-creating. Entries beyond the cap,
// in key order, are dropped from cache and store alike.
func (c *idemCache) recover() {
	c.recs.Each(func(r store.Entry[idemRecord]) {
		if len(c.entries) >= c.cap {
			_ = c.recs.Delete(c.recs.Named(r.Name))
			return
		}
		e := &idemEntry{
			done:        make(chan struct{}),
			status:      r.Val.Status,
			contentType: r.Val.ContentType,
			body:        r.Val.Body,
			stored:      true,
			durable:     true,
		}
		close(e.done)
		c.entries[r.Name] = e
		c.order = append(c.order, r.Name)
	})
}

// begin claims a key: the first caller becomes the owner (executes the
// handler); later callers receive the existing entry to wait on.
func (c *idemCache) begin(key string) (*idemEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, key)
	// Evict completed entries beyond the cap, oldest first. In-flight
	// entries are never evicted: removing one would let a concurrent
	// retry of its key become a second owner and double-execute. Stale
	// order slots (keys whose entry was replaced or already removed)
	// are simply dropped.
	for len(c.order) > c.cap {
		evicted := false
		for i := 0; i < len(c.order) && len(c.order) > c.cap; i++ {
			k := c.order[0]
			c.order = c.order[1:]
			e2, ok := c.entries[k]
			if !ok {
				evicted = true // stale slot reclaimed
				continue
			}
			select {
			case <-e2.done:
				delete(c.entries, k)
				if e2.durable {
					_ = c.recs.Delete(c.recs.Named(k))
				}
				evicted = true
			default:
				c.order = append(c.order, k) // in flight: keep
			}
		}
		if !evicted {
			break // everything in flight; tolerate temporary overflow
		}
	}
	return e, true
}

// finish records the owner's outcome. Transient failures (5xx,
// backpressure) are not cached: the key is released so a retry truly
// re-executes. The release checks entry identity, so it can never remove
// a newer entry that has since claimed the same key. With durable set
// (and a store attached), a cached outcome is also persisted, so it
// replays across a restart.
func (c *idemCache) finish(key string, e *idemEntry, status int, contentType string, body []byte, durable bool) {
	cacheIt := status < http.StatusInternalServerError && status != http.StatusServiceUnavailable
	if durable = durable && cacheIt; durable {
		durable = c.recs.Put(c.recs.Named(key), idemRecord{Status: status, ContentType: contentType, Body: body}) == nil
	}
	c.mu.Lock()
	e.status, e.contentType, e.body, e.stored, e.durable = status, contentType, body, cacheIt, durable
	if !cacheIt {
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// responseRecorder buffers a handler's response so it can be both sent
// and cached.
type responseRecorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.hdr }

func (r *responseRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// idempotent wraps a POST handler in the Idempotency-Key protocol: a
// keyed request executes at most once; repeats (including concurrent
// ones) replay the first completed response, flagged with the
// Idempotency-Replayed header. Unkeyed requests pass straight through.
// The cache is memory-only: a daemon restart forgets the key.
func (s *Service) idempotent(h http.HandlerFunc) http.HandlerFunc {
	return s.idempotentWith(h, false)
}

// idempotentDurable is idempotent with the cached response mirrored to
// the durable store, so a keyed create replays across a daemon restart.
// Only creates whose effects are themselves persisted (sessions, jobs)
// should use it: replaying a response whose backing state died with the
// process would hand the client a view of nothing.
func (s *Service) idempotentDurable(h http.HandlerFunc) http.HandlerFunc {
	return s.idempotentWith(h, true)
}

func (s *Service) idempotentWith(h http.HandlerFunc, durable bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(api.IdempotencyKeyHeader)
		if key == "" {
			h(w, r)
			return
		}
		key = r.Method + " " + r.URL.Path + "\x00" + key
		var e *idemEntry
		for {
			var owner bool
			e, owner = s.idem.begin(key)
			if owner {
				break
			}
			select {
			case <-e.done:
			case <-r.Context().Done():
				return
			case <-s.stopc:
				writeAPIError(w, api.Errorf(api.CodeNotReady, "draining for shutdown"))
				return
			}
			if e.stored {
				if e.contentType != "" {
					w.Header().Set("Content-Type", e.contentType)
				}
				w.Header().Set(api.IdempotencyReplayedHeader, "true")
				w.WriteHeader(e.status)
				_, _ = w.Write(e.body)
				return
			}
			// The attempt we waited on ended transiently and released the
			// key. Re-claim it: exactly one of the waiting retries becomes
			// the new owner and re-executes; the rest wait again.
		}
		rec := &responseRecorder{hdr: make(http.Header)}
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		body := rec.buf.Bytes()
		s.idem.finish(key, e, rec.status, rec.hdr.Get("Content-Type"), body, durable)
		for k, vs := range rec.hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.status)
		_, _ = w.Write(body)
	}
}

// Package telemetry is the farm's durable telemetry plane: bounded
// retention of finished plays' traces (queryable after hot-cache
// eviction and daemon restarts) and rolling multi-window SLO burn-rate
// objectives over the trace stream.
//
// The package is deliberately passive — it owns no goroutines. The
// service feeds it terminal traces, drives the SLO engine from its own
// ticker, and surfaces queries over the /v1 API; retention durability
// rides the service's embedded store under its own "tr-" key prefix.
package telemetry

import (
	"sort"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/store"
)

// traceKeyPrefix namespaces retained-trace records in the shared store
// (sessions are "s-", experiment jobs "x-", idempotency "idem-"); a key
// is the prefix and the record's Seq in 8 digits.
const traceKeyPrefix = "tr-"

// Record is one retained trace: the searchable summary plus the full
// compacted span view. Seq is assigned by Add in finish order — the
// ring's age axis.
type Record struct {
	Seq     int64            `json:"seq"`
	Summary api.TraceSummary `json:"summary"`
	Trace   *api.TraceView   `json:"trace,omitempty"`
}

// Filter selects retained traces in Query. Zero fields match everything.
type Filter struct {
	// Variant matches the play's theorem variant exactly.
	Variant string
	// Phase keeps only traces that spent time in the named phase.
	Phase string
	// MinMS keeps traces at or above this duration — the named phase's
	// duration when Phase is set, end-to-end otherwise.
	MinMS float64
	// Since keeps traces finished at or after this unix-millisecond
	// instant.
	Since int64
	// Cursor, when nonzero, resumes pagination: only records with
	// Seq < Cursor (older than the previous page's tail) are returned.
	Cursor int64
	// Limit caps the page (0 = the retention default of 50).
	Limit int
}

// The ring's bounds: it keeps at most MaxRecords traces of at most
// maxBytes encoded bytes in all, evicting the oldest first.
const (
	MaxRecords = 4096
	maxBytes   = 64 << 20
)

// Retention is the bounded trace ring. All exported methods are safe
// for concurrent use.
type Retention struct {
	disk       store.Records[Record] // memory-only on a nil store
	maxRecords int
	maxBytes   int64

	mu      sync.Mutex
	recs    []*Record        // ascending Seq (finish order)
	sizes   map[int64]int64  // Seq -> encoded bytes
	bySess  map[string]int64 // session id -> Seq (latest wins)
	bytes   int64
	nextSeq int64
	evicted int64
}

// OpenRetention builds the ring, bounded to maxRecords records (the
// farm passes MaxRecords), replaying any "tr-" records st holds from
// earlier runs and re-enforcing the bounds against them. A non-nil st
// mirrors every retained record to disk under the "tr-" prefix so the
// ring survives restarts; a nil one keeps the ring in memory only.
// Records this binary cannot read stay on disk, off the ring, and new
// records are numbered past them.
func OpenRetention(st *store.Store, maxRecords int) (*Retention, error) {
	r := &Retention{
		disk:       store.SeqRecords[Record](st, traceKeyPrefix, 8),
		maxRecords: maxRecords,
		maxBytes:   maxBytes,
		sizes:      make(map[int64]int64),
		bySess:     make(map[string]int64),
	}
	last, _ := r.disk.Watermark()
	r.nextSeq = last + 1
	r.disk.Each(func(e store.Entry[Record]) {
		rec := e.Val
		rec.Seq = e.Seq
		r.recs = append(r.recs, &rec)
		r.sizes[rec.Seq] = int64(e.Size)
		r.bytes += int64(e.Size)
	})
	sort.Slice(r.recs, func(i, j int) bool { return r.recs[i].Seq < r.recs[j].Seq })
	for _, rec := range r.recs {
		r.bySess[rec.Summary.Session] = rec.Seq
	}
	r.mu.Lock()
	r.enforceLocked()
	r.mu.Unlock()
	return r, nil
}

// Add retains one finished play's trace, evicting the oldest records
// if the ring overflows its count or byte bound. A summary without a
// finish time is stamped under the lock that assigns its sequence
// number, so the ring's order is also its finish-time order.
func (r *Retention) Add(summary api.TraceSummary, trace *api.TraceView) error {
	r.mu.Lock()
	if summary.FinishedUnixMS == 0 {
		summary.FinishedUnixMS = time.Now().UnixMilli()
	}
	rec := &Record{Seq: r.nextSeq, Summary: summary, Trace: trace}
	r.nextSeq++
	data, err := r.disk.Encode(*rec)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.recs = append(r.recs, rec)
	r.sizes[rec.Seq] = int64(len(data))
	r.bytes += int64(len(data))
	r.bySess[summary.Session] = rec.Seq
	r.enforceLocked()
	_, still := r.sizes[rec.Seq] // a tiny byte bound can self-evict
	r.mu.Unlock()
	if still {
		return r.disk.PutEncoded(r.disk.Key(rec.Seq), data)
	}
	return nil
}

// enforceLocked evicts oldest-first until the ring fits both bounds.
func (r *Retention) enforceLocked() {
	for len(r.recs) > 0 && (len(r.recs) > r.maxRecords || r.bytes > r.maxBytes) {
		old := r.recs[0]
		r.recs = r.recs[1:]
		r.bytes -= r.sizes[old.Seq]
		delete(r.sizes, old.Seq)
		if r.bySess[old.Summary.Session] == old.Seq {
			delete(r.bySess, old.Summary.Session)
		}
		r.evicted++
		_ = r.disk.Delete(r.disk.Key(old.Seq))
	}
}

// Trace returns the retained full trace for a session id.
func (r *Retention) Trace(session string) (*api.TraceView, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq, ok := r.bySess[session]
	if !ok {
		return nil, false
	}
	i := sort.Search(len(r.recs), func(i int) bool { return r.recs[i].Seq >= seq })
	if i < len(r.recs) && r.recs[i].Seq == seq {
		return r.recs[i].Trace, r.recs[i].Trace != nil
	}
	return nil, false
}

// Query returns the retained summaries matching f, newest first.
// total counts every match regardless of cursor and limit; nextCursor
// is nonzero when older matches remain past the returned page.
func (r *Retention) Query(f Filter) (page []api.TraceSummary, total int, nextCursor int64) {
	limit := f.Limit
	if limit <= 0 {
		limit = 50
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var lastSeq int64
	for i := len(r.recs) - 1; i >= 0; i-- {
		rec := r.recs[i]
		if !matches(rec.Summary, f) {
			continue
		}
		total++
		if f.Cursor != 0 && rec.Seq >= f.Cursor {
			continue
		}
		if len(page) < limit {
			page = append(page, rec.Summary)
			lastSeq = rec.Seq
		} else if nextCursor == 0 {
			nextCursor = lastSeq
		}
	}
	return page, total, nextCursor
}

// matches applies a filter to one summary.
func matches(s api.TraceSummary, f Filter) bool {
	if f.Variant != "" && s.Variant != f.Variant {
		return false
	}
	if f.Since != 0 && s.FinishedUnixMS < f.Since {
		return false
	}
	dur := s.DurationMS
	if f.Phase != "" {
		ms, ok := s.PhaseMS[f.Phase]
		if !ok {
			return false
		}
		dur = ms
	}
	if f.MinMS > 0 && dur < f.MinMS {
		return false
	}
	return true
}

// Stats reports the ring's occupancy for metrics: retained records,
// their encoded bytes, and the lifetime eviction count.
func (r *Retention) Stats() (records int, bytes int64, evicted int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs), r.bytes, r.evicted
}

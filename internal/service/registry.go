package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"asyncmediator/internal/store"
)

// Registry owns the session table as a hot cache in front of the durable
// store: live sessions (awaiting-types, queued, running) are always
// in-memory *Session objects; terminal sessions are persisted to the store
// at finish and — when the cache exceeds maxLive — evicted from memory in
// finish order. Lookups take a read lock; creation and eviction are the
// only writers, so the farm's hot path (status polls from many clients)
// never contends with itself.
type Registry struct {
	baseSeed int64
	maxN     int
	maxLive  int          // in-memory session bound (0: unlimited)
	st       *store.Store // nil: memory-only (evicted sessions are dropped)

	mu       sync.RWMutex
	sessions map[string]*Session
	finished []string // terminal ids in finish order: the eviction queue
	nextID   int64
	created  int64 // total sessions ever created or recovered
	evicted  int64
}

// NewRegistry creates a registry. baseSeed anchors derived session seeds;
// maxN caps the per-session player count (0: default 64); maxLive bounds
// the in-memory session count (0: unlimited; only terminal sessions are
// evictable). A non-nil store is replayed for the id watermark, so a
// restarted farm never reissues an id it already served.
func NewRegistry(baseSeed int64, maxN, maxLive int, st *store.Store) *Registry {
	if maxN == 0 {
		maxN = 64
	}
	r := &Registry{
		baseSeed: baseSeed,
		maxN:     maxN,
		maxLive:  maxLive,
		st:       st,
		sessions: make(map[string]*Session),
	}
	if st != nil {
		for _, key := range st.Keys(sessionKeyPrefix) {
			if seq, ok := parseKeySeq(key, sessionKeyPrefix); ok {
				if seq > r.nextID {
					r.nextID = seq
				}
				r.created++
			}
		}
	}
	return r
}

// Create validates the spec, compiles its parameters, and registers a new
// session in the awaiting-types state.
func (r *Registry) Create(spec Spec) (*Session, error) {
	normalizeSpec(&spec)
	if spec.N > r.maxN {
		return nil, fmt.Errorf("service: n=%d exceeds the farm's limit of %d", spec.N, r.maxN)
	}
	params, err := buildParams(spec)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.created++
	id := fmt.Sprintf("%s%06d", sessionKeyPrefix, r.nextID)
	seed := r.baseSeed + r.nextID
	if spec.Seed != nil {
		seed = *spec.Seed
	}
	params.CoinSeed = seed
	s := &Session{
		ID:      id,
		Spec:    spec,
		params:  params,
		seed:    seed,
		state:   StateAwaitingTypes,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	r.sessions[id] = s
	return s, nil
}

// Get returns the in-memory session with the given id. Evicted (terminal,
// persisted) sessions are not returned here — use Lookup for a view that
// spans both tiers.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[id]
	return s, ok
}

// Lookup returns a view of the session from either tier: the hot cache
// first, then the durable store.
func (r *Registry) Lookup(id string) (View, bool) {
	if s, ok := r.Get(id); ok {
		return s.Snapshot(), true
	}
	if r.st == nil {
		return View{}, false
	}
	data, ok := r.st.Get(id)
	if !ok {
		return View{}, false
	}
	var v View
	if err := unmarshalView(data, &v); err != nil {
		return View{}, false
	}
	return v, true
}

// Persist writes a terminal session's view to the store (a no-op on a
// memory-only farm). The worker that ran the session calls it before the
// session turns terminal, so "terminal" always implies "persisted".
func (r *Registry) Persist(v View) error {
	if r.st == nil {
		return nil
	}
	data, err := marshalView(v)
	if err != nil {
		return err
	}
	return r.st.Put(v.ID, data)
}

// Retire queues a terminal, persisted session for eviction and enforces
// the hot-cache bound, evicting the oldest terminal sessions.
func (r *Registry) Retire(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, id)
	r.evictLocked()
}

// evictLocked trims the hot cache down to maxLive by dropping terminal
// sessions in finish order. Live sessions are never evicted, so the cache
// can exceed maxLive while the farm is saturated with running plays.
func (r *Registry) evictLocked() {
	if r.maxLive <= 0 {
		return
	}
	for len(r.sessions) > r.maxLive && len(r.finished) > 0 {
		id := r.finished[0]
		r.finished = r.finished[1:]
		if _, ok := r.sessions[id]; ok {
			delete(r.sessions, id)
			r.evicted++
		}
	}
}

// List returns a page of session views across both tiers, sorted by id,
// optionally filtered to one lifecycle state. The in-memory view wins for
// sessions present in both (it is never staler than the store). It returns
// the total number of matching sessions alongside the requested page.
func (r *Registry) List(state string, offset, limit int) (int, []View) {
	views := make(map[string]View)
	if r.st != nil {
		// Copy the raw records out under the store lock and decode them
		// lock-free: a JSON decode per record inside Scan would stall every
		// worker trying to persist a finishing session.
		var raw [][]byte
		_ = r.st.Scan(sessionKeyPrefix, func(key string, data []byte) error {
			raw = append(raw, append([]byte(nil), data...))
			return nil
		})
		for _, data := range raw {
			var v View
			if err := unmarshalView(data, &v); err != nil {
				continue // skip an undecodable record rather than fail the page
			}
			if state == "" || string(v.State) == state {
				views[v.ID] = v
			}
		}
	}
	r.mu.RLock()
	memory := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		memory = append(memory, s)
	}
	r.mu.RUnlock()
	for _, s := range memory {
		v := s.Snapshot()
		if state == "" || string(v.State) == state {
			views[v.ID] = v
		} else {
			delete(views, v.ID) // the store copy is stale for this filter
		}
	}

	ids := make([]string, 0, len(views))
	for id := range views {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	total := len(ids)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if limit <= 0 || end > total {
		end = total
	}
	page := make([]View, 0, end-offset)
	for _, id := range ids[offset:end] {
		page = append(page, views[id])
	}
	return total, page
}

// Len returns the number of in-memory sessions (the hot-cache size).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Created returns the total sessions ever created (including recovered).
func (r *Registry) Created() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.created
}

// Evicted returns how many terminal sessions were evicted from memory.
func (r *Registry) Evicted() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.evicted
}

// InFlight returns the ids of the queued and running sessions, sorted.
func (r *Registry) InFlight() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var ids []string
	for id, s := range r.sessions {
		if st := s.stateNow(); st == StateQueued || st == StateRunning {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// StateCounts tallies in-memory sessions per lifecycle state. Evicted
// sessions are accounted separately (see StatsView.SessionsEvicted and the
// persisted tier's pagination).
func (r *Registry) StateCounts() map[State]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[State]int, 5)
	for _, s := range r.sessions {
		out[s.stateNow()]++
	}
	return out
}

// Package fleet is the daemon fleet's telemetry plane: a gossip mesh in
// which every mediatord periodically broadcasts a signed, monotonically
// versioned summary of its own health (queue depth, shed state, live
// sessions, store size, link counters, play-phase p99) and merges the
// summaries it hears — directly or transitively — into an eventually
// consistent view of the whole fleet.
//
// Why gossip and not a registry: the paper's (k,t)-robust protocol
// assumes an asynchronous network with no distinguished coordinator, and
// its operational analogue is the same — no daemon is special, any
// daemon may be asked "how healthy is the fleet?", and the answer must
// survive any single peer's death. Each node therefore gossips its full
// table every interval over the existing internal/cluster transport (a
// dedicated best-effort GOSSIP frame kind: unsequenced, dropped under
// pressure, healed by the next interval). Entries carry a per-origin
// generation number; a receiver adopts an entry only when its generation
// is strictly newer than what it holds, so state converges monotonically
// no matter how duplicated or delayed the digests are, and a partitioned
// peer's news still arrives through whichever neighbours can reach both
// sides.
//
// Liveness is judged locally: a peer whose generation stops advancing
// turns suspect after SuspectAfter and expired after ExpireAfter, per
// the observer's own clock. On top of the view sits a small alert-rule
// engine (alerts.go) that turns threshold crossings — silent peers,
// saturated queues, redial storms, the fleet shrinking below its
// configured healthy-daemon floor — into edge-triggered alerts for the
// event bus.
package fleet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"asyncmediator/internal/cluster"
)

// Health is one daemon's self-reported load summary — the unit of
// gossip. Gen is a per-origin monotone version: receivers keep only the
// highest generation they have seen for each origin, making merges
// idempotent and order-free.
type Health struct {
	Index        int     `json:"index"`
	Addr         string  `json:"addr,omitempty"` // API base URL, for operators
	Gen          uint64  `json:"gen"`
	QueueDepth   int     `json:"queue_depth"`
	Shedding     bool    `json:"shedding,omitempty"`
	LiveSessions int     `json:"live_sessions"`
	StoreKeys    int     `json:"store_keys"`
	Redials      int64   `json:"redials"`
	Resends      int64   `json:"resends"`
	DialErrors   int64   `json:"dial_errors"`
	PhaseP99MS   float64 `json:"phase_p99_ms"`
}

// State is the observer-local liveness judgement of one peer.
type State string

const (
	// StateUnknown: never heard from this peer (mesh still forming).
	StateUnknown State = "unknown"
	// StateHealthy: the peer's generation advanced recently.
	StateHealthy State = "healthy"
	// StateSuspect: silent past SuspectAfter; maybe slow, maybe dead.
	StateSuspect State = "suspect"
	// StateExpired: silent past ExpireAfter; treated as gone.
	StateExpired State = "expired"
)

// Config describes one node of the fleet mesh.
type Config struct {
	// Self is this daemon's index in the sorted fleet address table.
	Self int
	// N is the fleet size (length of the address table).
	N int
	// ListenAddr is the gossip transport's bind address.
	ListenAddr string
	// AdvertiseURL is this daemon's API base URL, carried in Health.Addr
	// so operators can map fleet indices back to daemons.
	AdvertiseURL string
	// ClusterID scopes the gossip mesh's HELLO handshakes ("fleet" by
	// default); a daemon from a different fleet is rejected at dial time.
	ClusterID string
	// Interval is the gossip period (default 1s).
	Interval time.Duration
	// SuspectAfter and ExpireAfter are the silence thresholds (defaults
	// 3x and 10x Interval).
	SuspectAfter time.Duration
	ExpireAfter  time.Duration
	// Floor, when > 0, is the minimum healthy-daemon count the fleet
	// needs (the operator's count of live failure domains); dropping
	// below it fires a fleet_floor alert.
	Floor int
	// QueueWatermark, when > 0, arms the queue_saturated alert rule at
	// that gossiped depth; QueueIntervals consecutive saturated rounds
	// fire it (default 3).
	QueueWatermark int
	QueueIntervals int
	// RedialWindow (rounds, default 10) and RedialStormDelta (default 8)
	// arm the redial_storm rule: that many redials within the window.
	RedialWindow     int
	RedialStormDelta int64
	// Secret, when set, HMAC-SHA256-signs every digest; digests with a
	// missing or wrong signature are discarded and counted.
	Secret string
	// TLS enables mutual TLS on the gossip transport.
	TLS *cluster.TLS
	// Source samples this daemon's own health each interval. Index, Gen,
	// and Addr are overwritten by the mesh. Nil means an empty summary.
	Source func() Health
	// OnAlert receives every alert-rule transition. Called from the tick
	// goroutine; must not block.
	OnAlert func(Alert)
	// Now overrides the wall clock (tests); nil means time.Now.
	Now func() time.Time
}

func (c *Config) normalize() error {
	if c.N < 1 {
		return fmt.Errorf("fleet: need at least one daemon, got n=%d", c.N)
	}
	if c.Self < 0 || c.Self >= c.N {
		return fmt.Errorf("fleet: self %d out of range [0,%d)", c.Self, c.N)
	}
	if c.ClusterID == "" {
		c.ClusterID = "fleet"
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.Interval
	}
	if c.ExpireAfter <= c.SuspectAfter {
		c.ExpireAfter = 10 * c.Interval
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// digest is the gossiped wire envelope: the sender's full table plus an
// optional HMAC over its canonical JSON.
type digest struct {
	From    int      `json:"from"`
	Entries []Health `json:"entries"`
	Sig     string   `json:"sig,omitempty"`
}

// peerEntry is the mesh's record of one fleet member.
type peerEntry struct {
	h        Health
	lastSeen time.Time // when Gen last advanced, observer clock
	state    State
}

// Mesh is one daemon's endpoint in the fleet gossip mesh.
type Mesh struct {
	cfg Config
	ep  *cluster.Endpoint
	t   *cluster.Transport

	mu    sync.Mutex
	peers []peerEntry
	gen   uint64
	start time.Time

	rounds, merged, sigRejected int64

	engine *engine

	done    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// New binds the gossip transport and starts the tick loop. Peer
// addresses may arrive later via SetAddrs; until then the mesh gossips
// into the void and every peer reads as unknown.
func New(cfg Config) (*Mesh, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := &Mesh{
		cfg:   cfg,
		peers: make([]peerEntry, cfg.N),
		done:  make(chan struct{}),
	}
	for i := range m.peers {
		m.peers[i].state = StateUnknown
		m.peers[i].h.Index = i
	}
	m.start = cfg.Now()
	m.engine = newEngine(engineConfig{
		n:                cfg.N,
		self:             cfg.Self,
		floor:            cfg.Floor,
		queueWatermark:   cfg.QueueWatermark,
		queueIntervals:   cfg.QueueIntervals,
		redialWindow:     cfg.RedialWindow,
		redialStormDelta: cfg.RedialStormDelta,
		emit:             cfg.OnAlert,
	})
	m.ep = cluster.NewEndpoint(cluster.EndpointConfig{ListenAddr: cfg.ListenAddr, TLS: cfg.TLS})
	t, err := m.ep.Open(cluster.Config{
		Self:          cfg.Self,
		N:             cfg.N,
		ClusterID:     cfg.ClusterID,
		GossipHandler: m.receive,
	})
	if err != nil {
		m.ep.Close()
		return nil, err
	}
	m.t = t
	m.wg.Add(1)
	go m.loop()
	return m, nil
}

// Addr returns the gossip transport's bound address.
func (m *Mesh) Addr() string { return m.t.Addr() }

// SetAddrs supplies the fleet's gossip address table (index-aligned with
// the mesh's own numbering; the self slot is ignored).
func (m *Mesh) SetAddrs(addrs []string) { m.t.SetAddrs(addrs) }

// DropConns severs every live gossip connection (chaos hook).
func (m *Mesh) DropConns() int { return m.t.DropConns() }

// Close stops the tick loop and tears down the transport and its
// endpoint.
func (m *Mesh) Close() {
	m.stopped.Do(func() { close(m.done) })
	m.wg.Wait()
	m.ep.Close()
}

// loop is the mesh heartbeat: sample, judge, alert, broadcast.
func (m *Mesh) loop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	m.tick() // gossip immediately so mesh formation is not one interval late
	for {
		select {
		case <-m.done:
			return
		case <-tick.C:
			m.tick()
		}
	}
}

// tick runs one gossip round.
func (m *Mesh) tick() {
	now := m.cfg.Now()

	var h Health
	if m.cfg.Source != nil {
		h = m.cfg.Source()
	}

	m.mu.Lock()
	m.gen++
	h.Index = m.cfg.Self
	h.Gen = m.gen
	if h.Addr == "" {
		h.Addr = m.cfg.AdvertiseURL
	}
	m.peers[m.cfg.Self] = peerEntry{h: h, lastSeen: now, state: StateHealthy}

	m.refreshStates(now)
	m.rounds++

	entries := make([]Health, 0, len(m.peers))
	for _, p := range m.peers {
		if p.h.Gen > 0 {
			entries = append(entries, p.h)
		}
	}
	view := m.viewLocked(now)
	m.mu.Unlock()

	// Alert evaluation and the broadcast both work on the snapshot taken
	// under the lock; neither holds it.
	m.engine.evaluate(view)

	payload, err := json.Marshal(digest{
		From:    m.cfg.Self,
		Entries: entries,
		Sig:     sign(m.cfg.Secret, m.cfg.Self, entries),
	})
	if err != nil {
		return
	}
	for p := 0; p < m.cfg.N; p++ {
		if p != m.cfg.Self {
			m.t.Gossip(p, payload)
		}
	}
}

// refreshStates re-judges every peer's liveness from its silence span.
// Caller holds m.mu.
func (m *Mesh) refreshStates(now time.Time) {
	for i := range m.peers {
		if i == m.cfg.Self {
			continue
		}
		p := &m.peers[i]
		if p.h.Gen == 0 {
			p.state = StateUnknown
			continue
		}
		silent := now.Sub(p.lastSeen)
		switch {
		case silent >= m.cfg.ExpireAfter:
			p.state = StateExpired
		case silent >= m.cfg.SuspectAfter:
			p.state = StateSuspect
		default:
			p.state = StateHealthy
		}
	}
}

// receive merges one inbound digest. It runs on the transport's read
// goroutine, so it only verifies, merges, and returns.
func (m *Mesh) receive(from int, payload []byte) {
	var d digest
	if err := json.Unmarshal(payload, &d); err != nil {
		return
	}
	if m.cfg.Secret != "" && !verify(m.cfg.Secret, d.From, d.Entries, d.Sig) {
		m.mu.Lock()
		m.sigRejected++
		m.mu.Unlock()
		return
	}
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range d.Entries {
		// Entries about ourselves are ignored: we are the sole authority
		// for our own generation. Everything else merges by generation,
		// which makes transitive gossip work — peer k relaying peer j's
		// entry refreshes j's lastSeen here even if j cannot reach us.
		if e.Index < 0 || e.Index >= m.cfg.N || e.Index == m.cfg.Self {
			continue
		}
		p := &m.peers[e.Index]
		if e.Gen <= p.h.Gen {
			continue
		}
		p.h = e
		p.lastSeen = now
		m.merged++
	}
}

// sign computes the digest HMAC ("" when no secret is configured). The
// signed bytes are the canonical JSON of the entries prefixed by the
// sender index, so a digest cannot be re-attributed to another sender.
func sign(secret string, from int, entries []Health) string {
	if secret == "" {
		return ""
	}
	mac := hmac.New(sha256.New, []byte(secret))
	fmt.Fprintf(mac, "%d|", from)
	b, _ := json.Marshal(entries)
	mac.Write(b)
	return hex.EncodeToString(mac.Sum(nil))
}

// verify checks a digest signature in constant time.
func verify(secret string, from int, entries []Health, sig string) bool {
	want := sign(secret, from, entries)
	return hmac.Equal([]byte(want), []byte(sig))
}

// PeerView is one row of the fleet view: the latest gossiped health plus
// the observer-local liveness judgement.
type PeerView struct {
	Health
	State       State
	Self        bool
	SilentForMS int64
}

// View is an observer-local snapshot of the whole fleet.
type View struct {
	Self          int
	N             int
	Floor         int
	Interval      time.Duration
	SuspectAfter  time.Duration
	ExpireAfter   time.Duration
	Peers         []PeerView
	Healthy       int
	Suspect       int
	Expired       int
	Unknown       int
	GenVector     []uint64
	Rounds        int64
	EntriesMerged int64
	SigRejected   int64
	Alerts        []Alert // alerts currently firing (not yet cleared)
}

// View snapshots the fleet as this node currently sees it.
func (m *Mesh) View() View {
	now := m.cfg.Now()
	m.mu.Lock()
	m.refreshStates(now)
	v := m.viewLocked(now)
	m.mu.Unlock()
	v.Alerts = m.engine.active()
	return v
}

// viewLocked builds a View snapshot; caller holds m.mu.
func (m *Mesh) viewLocked(now time.Time) View {
	v := View{
		Self:          m.cfg.Self,
		N:             m.cfg.N,
		Floor:         m.cfg.Floor,
		Interval:      m.cfg.Interval,
		SuspectAfter:  m.cfg.SuspectAfter,
		ExpireAfter:   m.cfg.ExpireAfter,
		Peers:         make([]PeerView, len(m.peers)),
		GenVector:     make([]uint64, len(m.peers)),
		Rounds:        m.rounds,
		EntriesMerged: m.merged,
		SigRejected:   m.sigRejected,
	}
	for i, p := range m.peers {
		pv := PeerView{Health: p.h, State: p.state, Self: i == m.cfg.Self}
		if p.h.Gen > 0 {
			pv.SilentForMS = now.Sub(p.lastSeen).Milliseconds()
		}
		v.Peers[i] = pv
		v.GenVector[i] = p.h.Gen
		switch p.state {
		case StateHealthy:
			v.Healthy++
		case StateSuspect:
			v.Suspect++
		case StateExpired:
			v.Expired++
		default:
			v.Unknown++
		}
	}
	return v
}

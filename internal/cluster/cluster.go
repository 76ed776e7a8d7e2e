// Package cluster is the hardened peer-to-peer transport under every
// cross-process cheap-talk session: length-prefixed framed connections
// with optional mutual TLS, a versioned HELLO handshake that names the
// cluster session and the directed player stream each connection carries,
// per-peer outbound write queues (no global send mutex), and automatic
// redial with sequence-numbered resend buffers, so a dropped connection
// replays its unacknowledged frames instead of silently muting a peer.
//
// The paper's asynchronous model assumes a loss-free network: every
// message sent between honest players is eventually delivered, exactly
// once, in per-pair order. Real TCP meshes break that promise the moment
// a connection drops. This package restores it: each directed stream
// (from -> to) is sequence-numbered, the receiver acknowledges
// cumulatively and deduplicates, and the sender keeps every frame
// buffered until acknowledged — a reconnect resumes from the receiver's
// cursor. Honest players in separate failure domains (separate daemons,
// separate machines) therefore see exactly the delivery semantics the
// protocol's (k,t)-robustness proof assumes.
//
// Topology: node i owns one outbound link per peer j, carrying DATA
// frames i->j; the same TCP connection carries cumulative ACK frames
// j->i written by the receiver. Inbound connections are accepted from
// any peer after a handshake that verifies protocol version, cluster id,
// and stream endpoints (and, under TLS, the peer certificate against the
// cluster CA). A fresh handshake for a stream supersedes the previous
// connection, so a half-dead socket cannot shadow its replacement.
//
// I/O is batched per burst, not per frame, with the wire bytes unchanged.
// A link's writer takes one queued payload plus whatever else is already
// queued (up to 64 KiB of frames), stamps and buffers them all for
// resend, and writes them as one coalesced write. Both ends read through
// one buffered reader per connection. The receiver acknowledges only
// when it has consumed every buffered byte, so one cumulative ACK covers
// a whole burst. The handshake frames read before a peer is admitted are
// bounded to 4 KiB.
package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one transport endpoint (one protocol node).
type Config struct {
	// Self is this node's player index in [0, N).
	Self int
	// N is the number of players in the mesh.
	N int
	// ClusterID names the play this mesh carries; handshakes from any
	// other cluster are rejected. Defaults to "local".
	ClusterID string
	// ListenAddr is the TCP address to bind ("127.0.0.1:0" by default:
	// loopback, ephemeral port).
	ListenAddr string
	// AdvertiseHost, when set, replaces the host in Addr() — for daemons
	// that bind a wildcard interface but advertise a routable name.
	AdvertiseHost string
	// TLS enables mutual TLS on every connection (nil: plaintext).
	TLS *TLS
	// DialTimeout bounds one dial attempt (default 1s). Dialing retries
	// with backoff until the transport closes, so mesh formation tolerates
	// peers that bind late.
	DialTimeout time.Duration
	// QueueDepth bounds each per-peer outbound queue (default 1024).
	// Send blocks when a peer's queue is full: backpressure, not loss.
	QueueDepth int
	// InboxDepth bounds the delivery channel (default 4096).
	InboxDepth int
	// TraceID, when set, is announced in every outbound HELLO so the
	// play's distributed trace is visible at the transport layer; peers
	// that predate the field ignore it.
	TraceID string
	// GossipHandler, when set, receives every inbound GOSSIP payload.
	// It runs on the stream's read goroutine, so it must be fast and
	// never block; heavy work belongs on the receiver's own goroutine.
	// Peers that predate the GOSSIP kind skip the frames silently, so a
	// mixed-generation mesh degrades to "no gossip", not to errors.
	GossipHandler func(from int, payload []byte)
}

func (c *Config) normalize() error {
	if c.N < 1 {
		return fmt.Errorf("cluster: need at least one player, got n=%d", c.N)
	}
	if c.Self < 0 || c.Self >= c.N {
		return fmt.Errorf("cluster: self %d out of range [0,%d)", c.Self, c.N)
	}
	if c.ClusterID == "" {
		c.ClusterID = "local"
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 4096
	}
	return nil
}

// Stats is a snapshot of the transport's cumulative counters.
type Stats struct {
	// Sent counts payloads accepted by Send (loopback included).
	Sent int64
	// Resent counts frames replayed from a resend buffer after reconnect.
	Resent int64
	// Delivered counts frames handed to the inbox exactly once.
	Delivered int64
	// Duplicates counts inbound frames dropped by the dedup cursor.
	Duplicates int64
	// Reconnects counts re-established outbound connections (the first
	// connection of a link does not count).
	Reconnects int64
	// DialErrors counts failed dial or handshake attempts.
	DialErrors int64
	// Rejected counts inbound handshakes this node refused.
	Rejected int64
	// ConnsDropped counts connections severed by DropConns (chaos).
	ConnsDropped int64
	// Acks counts cumulative-ack frames this node received on its
	// outbound links: one per burst the peer consumed, not one per frame.
	Acks int64
	// FramesIn/FramesOut and BytesIn/BytesOut count steady-state traffic
	// (DATA, ACK, and GOSSIP frames, header included; handshakes
	// excluded).
	FramesIn  int64
	FramesOut int64
	BytesIn   int64
	BytesOut  int64
	// GossipSent/GossipReceived count best-effort GOSSIP frames written
	// and dispatched; GossipDropped counts digests discarded because a
	// link's gossip lane was full (dead or slow peer).
	GossipSent     int64
	GossipReceived int64
	GossipDropped  int64
	// QueueLen is the instantaneous sum of unsent payloads across the
	// per-peer outbound queues.
	QueueLen int
	// ResendBuffered is the instantaneous sum of sent-but-unacknowledged
	// frames held for replay across links.
	ResendBuffered int
}

// inbound is the receive state of one directed stream (peer -> self):
// the dedup/ordering cursor and the connection currently serving it.
type inbound struct {
	mu        sync.Mutex
	delivered uint64
	conn      net.Conn
}

// Transport is one node's endpoint in the cluster mesh.
type Transport struct {
	cfg   Config
	ln    net.Listener
	links []*link
	in    []*inbound
	inbox chan Frame

	selfSeq atomic.Uint64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	done    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	sent, resent, delivered, duplicates       atomic.Int64
	reconnects, dialErrs, rejected, chaosDrop atomic.Int64
	acks, framesIn, framesOut                 atomic.Int64
	bytesIn, bytesOut                         atomic.Int64
	gossipSent, gossipIn, gossipDropped       atomic.Int64

	// peerTraceID remembers the last trace id announced by an inbound
	// HELLO (string; empty until a tracing peer connects).
	peerTraceID atomic.Value
}

// New binds the listen address and starts accepting. Peer addresses may
// be supplied now or later (SetPeerAddr); links dial lazily with retry,
// so construction order across the mesh does not matter.
func New(cfg Config) (*Transport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.ListenAddr, err)
	}
	t := &Transport{
		cfg:   cfg,
		ln:    ln,
		links: make([]*link, cfg.N),
		in:    make([]*inbound, cfg.N),
		inbox: make(chan Frame, cfg.InboxDepth),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	for p := 0; p < cfg.N; p++ {
		t.in[p] = &inbound{}
		if p == cfg.Self {
			continue
		}
		t.links[p] = newLink(t, p, cfg.QueueDepth)
		t.wg.Add(1)
		go t.links[p].run()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address peers should dial: the bound listener's,
// with the advertise host substituted when configured.
func (t *Transport) Addr() string {
	addr := t.ln.Addr().String()
	if t.cfg.AdvertiseHost == "" {
		return addr
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return net.JoinHostPort(t.cfg.AdvertiseHost, port)
}

// SetPeerAddr supplies (or updates) the dial address of one peer. Links
// without an address wait; links with one dial it with retry.
func (t *Transport) SetPeerAddr(peer int, addr string) {
	if peer < 0 || peer >= t.cfg.N || peer == t.cfg.Self || addr == "" {
		return
	}
	t.links[peer].setAddr(addr)
}

// SetAddrs supplies the whole address table at once; empty entries and
// the self slot are skipped.
func (t *Transport) SetAddrs(addrs []string) {
	for p, a := range addrs {
		t.SetPeerAddr(p, a)
	}
}

// Send enqueues one payload for a peer (loopback for self). It blocks
// only on a full per-peer queue — backpressure — and becomes a no-op
// once the transport closes. The payload buffer is owned by the
// transport from here on.
func (t *Transport) Send(to int, payload []byte) {
	if to < 0 || to >= t.cfg.N {
		return
	}
	t.sent.Add(1)
	if to == t.cfg.Self {
		f := Frame{From: to, To: to, Seq: t.selfSeq.Add(1), Payload: payload}
		select {
		case t.inbox <- f:
			t.delivered.Add(1)
		case <-t.done:
		}
		return
	}
	t.links[to].enqueue(payload)
}

// Gossip enqueues one best-effort payload for a peer. It never blocks:
// a full gossip lane (dead or slow peer) drops the payload and reports
// false. Loopback sends dispatch straight to the handler. Delivery has
// no ordering or exactly-once guarantee — callers are expected to
// re-gossip periodically, so any single lost frame costs one interval.
func (t *Transport) Gossip(to int, payload []byte) bool {
	if to < 0 || to >= t.cfg.N {
		return false
	}
	select {
	case <-t.done:
		return false
	default:
	}
	if to == t.cfg.Self {
		if fn := t.cfg.GossipHandler; fn != nil {
			t.gossipSent.Add(1)
			t.gossipIn.Add(1)
			fn(t.cfg.Self, payload)
			return true
		}
		return false
	}
	if !t.links[to].enqueueGossip(payload) {
		t.gossipDropped.Add(1)
		return false
	}
	return true
}

// Inbox is the delivery channel: every frame exactly once, in per-stream
// order. The channel is never closed; consumers should also select on
// their own shutdown signal.
func (t *Transport) Inbox() <-chan Frame { return t.inbox }

// Stats snapshots the traffic counters; safe from any goroutine.
func (t *Transport) Stats() Stats {
	s := Stats{
		Sent:         t.sent.Load(),
		Resent:       t.resent.Load(),
		Delivered:    t.delivered.Load(),
		Duplicates:   t.duplicates.Load(),
		Reconnects:   t.reconnects.Load(),
		DialErrors:   t.dialErrs.Load(),
		Rejected:     t.rejected.Load(),
		ConnsDropped: t.chaosDrop.Load(),
		Acks:         t.acks.Load(),
		FramesIn:     t.framesIn.Load(),
		FramesOut:    t.framesOut.Load(),
		BytesIn:      t.bytesIn.Load(),
		BytesOut:     t.bytesOut.Load(),

		GossipSent:     t.gossipSent.Load(),
		GossipReceived: t.gossipIn.Load(),
		GossipDropped:  t.gossipDropped.Load(),
	}
	for _, l := range t.links {
		if l == nil {
			continue
		}
		q, buf := l.depths()
		s.QueueLen += q
		s.ResendBuffered += buf
	}
	return s
}

// PeerTraceID returns the trace id most recently announced by an inbound
// handshake ("" until a tracing peer connects).
func (t *Transport) PeerTraceID() string {
	if v, ok := t.peerTraceID.Load().(string); ok {
		return v
	}
	return ""
}

// DropConns severs every live connection — the chaos hook behind
// mediatord's fault-injection endpoint and the transport tests. Links
// redial and replay their unacknowledged frames; the mesh heals without
// losing or duplicating a payload. It returns the number of connections
// closed.
func (t *Transport) DropConns() int {
	t.connMu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	t.chaosDrop.Add(int64(len(conns)))
	return len(conns)
}

// register tracks a live connection for DropConns/Close. It refuses —
// and the caller must close the connection — once the transport is
// shutting down, so a connection accepted concurrently with Close can
// never be orphaned past Close's sweep (which holds connMu after done
// closes: register either ran before the sweep, and the sweep closes
// the conn, or after, and sees done).
func (t *Transport) register(c net.Conn) bool {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	select {
	case <-t.done:
		return false
	default:
	}
	t.conns[c] = struct{}{}
	return true
}

// unregister forgets a connection once its serving goroutine exits.
func (t *Transport) unregister(c net.Conn) {
	t.connMu.Lock()
	delete(t.conns, c)
	t.connMu.Unlock()
}

// Close tears the transport down: listener, every connection, every
// link goroutine. Frames still in flight are dropped; the consumer's
// protocol layer owns end-of-play semantics.
func (t *Transport) Close() {
	t.stopped.Do(func() {
		close(t.done)
		t.ln.Close()
		t.connMu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.connMu.Unlock()
	})
	t.wg.Wait()
}

// acceptLoop admits inbound connections and hands each to a serving
// goroutine after (optional) TLS wrapping.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if t.cfg.TLS != nil {
			conn = tlsServer(conn, t.cfg.TLS)
		}
		if !t.register(conn) {
			conn.Close() // transport closing; never serve an untracked conn
			return
		}
		t.wg.Add(1)
		go t.serveInbound(conn)
	}
}

// handshakeTimeout bounds how long an inbound connection may take to
// present a valid HELLO (and, for the dialer, to receive the WELCOME).
const handshakeTimeout = 5 * time.Second

// serveInbound runs one accepted connection: verify the HELLO, adopt the
// stream (superseding any previous connection), then deliver DATA frames
// through the dedup cursor, acknowledging cumulatively once per burst.
func (t *Transport) serveInbound(conn net.Conn) {
	defer t.wg.Done()
	defer t.unregister(conn)
	defer conn.Close()

	// One buffered reader for the connection's whole life: a burst of
	// frames costs one read, and the HELLO read must not strand the bytes
	// behind it.
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	kind, body, err := readFrame(br, maxHandshakeBytes)
	if err != nil || kind != kindHello {
		t.rejected.Add(1)
		return
	}
	h, err := parseHello(body)
	if err != nil {
		t.rejected.Add(1)
		return
	}
	if reason := t.vetHello(h); reason != "" {
		t.rejected.Add(1)
		_ = writeReject(conn, reason)
		return
	}
	if h.TraceID != "" {
		t.peerTraceID.Store(h.TraceID)
	}
	_ = conn.SetReadDeadline(time.Time{})

	st := t.in[h.From]
	st.mu.Lock()
	if st.conn != nil && st.conn != conn {
		st.conn.Close() // a fresh handshake supersedes the old connection
	}
	st.conn = conn
	cursor := st.delivered
	st.mu.Unlock()
	if err := writeWelcome(conn, cursor); err != nil {
		return
	}

	var ackFrame []byte // reused for every ACK on this connection
	unacked := false    // a DATA frame arrived since the last ACK
	for {
		kind, body, err := readRaw(br)
		if err != nil {
			return
		}
		t.framesIn.Add(1)
		t.bytesIn.Add(int64(5 + len(body)))
		switch kind {
		case kindGossip:
			t.gossipIn.Add(1)
			if fn := t.cfg.GossipHandler; fn != nil {
				fn(h.From, body)
			}
			// Unsequenced: no dedup cursor, and no ACK of its own.
		case kindData:
			seq, payload, err := parseData(body)
			if err != nil {
				return
			}
			if !t.deliver(st, Frame{From: h.From, To: t.cfg.Self, Seq: seq, Payload: payload}) {
				return
			}
			unacked = true
		default:
			// Tolerate unknown-but-framed kinds from newer peers.
		}
		// The ACK is cumulative, so one written when the burst's bytes are
		// used up covers every frame of it.
		if !unacked || br.Buffered() > 0 {
			continue
		}
		st.mu.Lock()
		ackFrame = appendAck(ackFrame[:0], st.delivered)
		st.mu.Unlock()
		if _, err := conn.Write(ackFrame); err != nil {
			return
		}
		unacked = false
		t.framesOut.Add(1)
		t.bytesOut.Add(5 + 8)
	}
}

// deliver passes one DATA frame through the stream's dedup cursor: the
// next frame of the stream goes to the inbox exactly once, a replayed one
// is counted and dropped. It reports false once the transport closes.
func (t *Transport) deliver(st *inbound, f Frame) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case f.Seq == st.delivered+1:
		// The lock is held across the inbox send so a superseding
		// connection cannot interleave a later frame ahead of this one.
		select {
		case t.inbox <- f:
			st.delivered = f.Seq
			t.delivered.Add(1)
		case <-t.done:
			return false
		}
	case f.Seq <= st.delivered:
		t.duplicates.Add(1) // replayed frame we already delivered
	default:
		// A gap: frames from a superseded connection era. Drop; the
		// sender still buffers everything unacknowledged and will replay
		// contiguously on its live connection.
	}
	return true
}

// vetHello validates an inbound handshake, returning a rejection reason
// ("" to accept).
func (t *Transport) vetHello(h hello) string {
	switch {
	case h.Version != ProtocolVersion:
		return fmt.Sprintf("version %d, want %d", h.Version, ProtocolVersion)
	case h.ClusterID != t.cfg.ClusterID:
		return fmt.Sprintf("cluster %q, want %q", h.ClusterID, t.cfg.ClusterID)
	case h.To != t.cfg.Self:
		return fmt.Sprintf("stream addressed to %d, this node is %d", h.To, t.cfg.Self)
	case h.From < 0 || h.From >= t.cfg.N || h.From == t.cfg.Self:
		return fmt.Sprintf("bad peer index %d", h.From)
	}
	return ""
}

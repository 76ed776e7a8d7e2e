// Package cluster is the hardened peer-to-peer transport under every
// cross-process cheap-talk session: length-prefixed framed connections
// with optional mutual TLS, a versioned HELLO handshake that names the
// cluster session and the directed player stream each connection carries,
// per-peer pending queues that Send appends to without ever blocking (no
// global send mutex), and automatic redial with sequence-numbered resend
// buffers, so a dropped connection replays its unacknowledged frames
// instead of silently muting a peer.
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
// A link's writer takes everything pending for its peer under one lock,
// stamps and buffers it all for resend, and writes it in coalesced
// writes of up to 64 KiB of frames. Both ends read through one buffered
// reader per connection. ACKs are delayed: an ACK only trims the
// sender's resend buffer (a reconnect replays from the receiver's WELCOME
// cursor), so the receiver sends one cumulative ACK when 256 frames are
// unacknowledged or the stream has been idle for 20 ms. The handshake
// frames read before a peer is admitted are bounded to 4 KiB.
//
// Memory is bounded by a play's traffic, not by capacities fixed in
// advance: the pending queues and the resend buffers hold what the play
// sent and its peers have not yet taken or acknowledged, and the
// delivery inbox is small. Self-addressed payloads ride a loopback
// stream of their own, so the inbox's consumer can send to itself while
// the inbox is full.
package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one transport endpoint (one protocol node). It sizes
// no queue or inbox: Send never blocks, and the transport's memory is
// bounded by the traffic of the play it carries.
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
	// with backoff until the transport closes or is quiesced, so mesh
	// formation tolerates peers that bind late.
	DialTimeout time.Duration
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
	// outbound links. Receivers delay their ACKs (one per 256 frames, or
	// once a stream has been idle for 20 ms), so this is far below the
	// DATA frame count.
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
	// per-peer pending queues and the loopback stream. The queues are
	// unbounded: Send never blocks, so a peer not yet reached makes this
	// grow with the traffic sent to it.
	QueueLen int
	// ResendBuffered is the instantaneous sum of sent-but-unacknowledged
	// frames held for replay across links. With delayed ACKs it reads up
	// to a few hundred frames per link mid-play and drains to zero once
	// each stream has been idle for the ACK delay.
	ResendBuffered int
}

// inbound is the receive state of one directed stream (peer -> self):
// the dedup/ordering cursor and the connection currently serving it.
type inbound struct {
	mu        sync.Mutex
	delivered uint64
	conn      net.Conn
}

// inboxDepth sizes the delivery channel. Every inbound stream's reader
// and the loopback stream block on a full inbox, which backpressures the
// sending link through TCP, never Send; a few bursts of slack keeps the
// readers from stalling on every frame.
const inboxDepth = 256

// Transport is one node's endpoint in the cluster mesh.
type Transport struct {
	cfg   Config
	ln    net.Listener
	links []*link
	in    []*inbound
	inbox chan Frame
	loop  sendQueue // self-addressed payloads, fed to the inbox by loopback

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	done    chan struct{}
	stopped sync.Once
	quiet   chan struct{} // closed by Quiesce: links stop redialing
	quieted sync.Once
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
		inbox: make(chan Frame, inboxDepth),
		loop:  newSendQueue(),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
		quiet: make(chan struct{}),
	}
	for p := 0; p < cfg.N; p++ {
		t.in[p] = &inbound{}
		if p == cfg.Self {
			continue
		}
		t.links[p] = newLink(t, p)
		t.wg.Add(1)
		go t.links[p].run()
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.loopback()
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

// Send appends one payload to a peer's pending queue (the loopback
// stream for self) and returns. It never blocks and applies no
// backpressure: what the caller sends is held until the peer
// acknowledges it, so memory is bounded by the play's traffic. Send is
// a no-op once the transport closes. The payload buffer is owned by the
// transport from here on.
func (t *Transport) Send(to int, payload []byte) {
	if to < 0 || to >= t.cfg.N {
		return
	}
	select {
	case <-t.done:
		return
	default:
	}
	t.sent.Add(1)
	if to == t.cfg.Self {
		t.loop.push(payload)
		return
	}
	t.links[to].pending.push(payload)
}

// loopback is the self stream's reader: it feeds self-addressed payloads
// into the inbox in send order, as each inbound stream's reader does for
// its peer, so a consumer that sends to itself never waits on its own
// full inbox.
func (t *Transport) loopback() {
	defer t.wg.Done()
	var payloads [][]byte
	var seq uint64
	for {
		select {
		case <-t.loop.wake:
		case <-t.done:
			return
		}
		payloads = t.loop.swap(payloads)
		for i, p := range payloads {
			seq++
			select {
			case t.inbox <- Frame{From: t.cfg.Self, To: t.cfg.Self, Seq: seq, Payload: p}:
				t.delivered.Add(1)
			case <-t.done:
				return
			}
			payloads[i] = nil
		}
	}
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
	s.QueueLen = t.loop.len()
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

// Quiesce tells the transport its play is over: from now on a link whose
// connection breaks exits instead of redialing, and a link not yet
// connected gives up. Live connections keep carrying frames until Close.
// Call it on every node of a finished play before closing any, so that
// closing one is not taken by the others' links as a fault to heal — a
// redial of a closed listener that would count as a dial error. DropConns
// on a transport that is not quiesced still redials.
func (t *Transport) Quiesce() { t.quieted.Do(func() { close(t.quiet) }) }

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
// through the dedup cursor, acknowledging them cumulatively and late.
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

	ack := &acker{t: t, conn: conn}
	defer ack.stop()
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
			cursor, ok := t.deliver(st, Frame{From: h.From, To: t.cfg.Self, Seq: seq, Payload: payload})
			if !ok || ack.note(cursor) != nil {
				return
			}
		default:
			// Tolerate unknown-but-framed kinds from newer peers.
		}
	}
}

// The receiver's ACK policy. An ACK only trims the sender's resend
// buffer — a reconnect replays from the WELCOME cursor, not from the last
// ACK — so the receiver delays it: one cumulative ACK once ackEvery DATA
// frames are unacknowledged, or once the stream has been idle for
// ackIdle. ackEvery bounds a link's resend buffer while a stream is busy;
// ackIdle is how long a finished burst stays buffered.
const (
	ackEvery = 256
	ackIdle  = 20 * time.Millisecond
)

// acker writes one inbound connection's cumulative ACKs: from the
// stream's reader when ackEvery frames are unacknowledged, and from an
// idle timer otherwise.
type acker struct {
	t    *Transport
	conn net.Conn

	mu      sync.Mutex
	cursor  uint64 // the stream's delivery cursor after the last DATA frame
	unacked int    // DATA frames read since the last ACK
	seen    int    // unacked when the timer was armed; 0: not armed
	stopped bool
	timer   *time.Timer
	frame   []byte // reused for every ACK on this connection
}

// note records one DATA frame read, leaving the stream's cursor at
// cursor. It acknowledges at once when ackEvery frames are
// unacknowledged and otherwise makes sure the idle timer is armed.
func (a *acker) note(cursor uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cursor = cursor
	if a.unacked++; a.unacked >= ackEvery {
		return a.write()
	}
	if a.seen == 0 {
		a.seen = a.unacked
		if a.timer == nil {
			a.timer = time.AfterFunc(ackIdle, a.idle)
		} else {
			a.timer.Reset(ackIdle)
		}
	}
	return nil
}

// idle runs ackIdle after the timer was armed: if no frame arrived since,
// the stream is idle and its frames are acknowledged; otherwise it waits
// another ackIdle. A failed write closes nothing here: the reader sees
// the broken connection on its next read.
func (a *acker) idle() {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case a.stopped || a.unacked == 0:
		a.seen = 0
	case a.unacked != a.seen:
		a.seen = a.unacked
		a.timer.Reset(ackIdle)
	default:
		_ = a.write()
	}
}

// write sends one cumulative ACK for the cursor; a.mu is held.
func (a *acker) write() error {
	a.frame = appendAck(a.frame[:0], a.cursor)
	a.unacked, a.seen = 0, 0
	if _, err := a.conn.Write(a.frame); err != nil {
		return err
	}
	a.t.framesOut.Add(1)
	a.t.bytesOut.Add(int64(len(a.frame)))
	return nil
}

// stop disarms the timer once the connection's reader exits; no ACK is
// written after stop returns.
func (a *acker) stop() {
	a.mu.Lock()
	a.stopped = true
	if a.timer != nil {
		a.timer.Stop()
	}
	a.mu.Unlock()
}

// deliver passes one DATA frame through the stream's dedup cursor: the
// next frame of the stream goes to the inbox exactly once, a replayed one
// is counted and dropped. It returns the stream's delivery cursor
// afterwards, and false once the transport closes.
func (t *Transport) deliver(st *inbound, f Frame) (uint64, bool) {
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
			return st.delivered, false
		}
	case f.Seq <= st.delivered:
		t.duplicates.Add(1) // replayed frame we already delivered
	default:
		// A gap: frames from a superseded connection era. Drop; the
		// sender still buffers everything unacknowledged and will replay
		// contiguously on its live connection.
	}
	return st.delivered, true
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

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
// Topology: a Transport is one player's node in one play's mesh. Node i
// owns one outbound link per peer j, carrying DATA frames i->j; the same
// TCP connection carries cumulative ACK frames j->i written by the
// receiver. A HELLO verifies the protocol version, cluster id and stream
// endpoints (and, under TLS, the peer certificate against the cluster
// CA). A fresh handshake for a stream supersedes the connection that
// served it, so a half-dead socket cannot shadow its replacement.
//
// Endpoint: the transports of one process share an Endpoint, which owns
// one listener and every connection. The endpoint routes an inbound HELLO
// to the transport registered for its (cluster id, To). Connections
// outlive streams: when a transport closes, its connections are detached,
// not closed. The dialer's connection goes to the endpoint's idle pool,
// keyed by peer address, and a link takes a pooled connection before it
// dials; the acceptor's connection waits for its next HELLO. A HELLO on a
// live connection re-attaches it to a new stream, so back-to-back plays
// between the same daemons open no TCP connection at all. One endpoint
// goroutine reads each connection for its whole life; DATA frames for a
// stream whose transport has closed are dropped, and a HELLO for one that
// closed within the handshake timeout is welcomed into such a detached
// stream rather than refused, so the daemons of a play may finish it in
// any order. A connection at rest for idleTimeout is closed, and a pooled
// connection found dead at handshake time is replaced by a fresh dial at
// once.
//
// ACK isolation: an ACK only ever trims the resend buffer of the stream
// it was written for. On a re-attach the acceptor stops the old stream's
// acker, waiting out an ACK its timer is writing, before it writes the new
// stream's WELCOME; the dialer drops every ACK it reads before that
// WELCOME. So no stale ACK can trim a new stream.
//
// I/O is batched per burst, not per frame, with the wire bytes unchanged.
// A link's writer takes everything pending for its peer under one lock,
// stamps and buffers it all for resend, and writes it in coalesced
// writes of up to 64 KiB of frames. Both ends read through one buffered
// reader per connection, which carves small frame bodies out of a slab
// allocated once per burst. ACKs are delayed: an ACK only trims the
// sender's resend buffer (a reconnect replays from the receiver's WELCOME
// cursor), so the receiver sends one cumulative ACK when 256 frames are
// unacknowledged or the stream has been idle for 20 ms. The handshake
// frames read before a peer is admitted are bounded to 4 KiB.
//
// Memory is bounded by a play's traffic, not by capacities fixed in
// advance: the pending queues and the resend buffers hold what the play
// sent and its peers have not yet taken or acknowledged, and the
// delivery inbox is small. The transport carries peer streams only: a
// player's messages to itself never leave its process (package wire
// delivers them in-process), so Send drops a self-addressed payload.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one player's transport in one play. It sizes no
// queue or inbox: Send never blocks, and the transport's memory is
// bounded by the traffic of the play it carries. Where it listens and how
// it secures its connections belong to its Endpoint.
type Config struct {
	// Self is this node's player index in [0, N).
	Self int
	// N is the number of players in the mesh.
	N int
	// ClusterID names the play this mesh carries; handshakes from any
	// other cluster are rejected. Defaults to "local".
	ClusterID string
	// TraceID, when set, is announced in every outbound HELLO so the
	// play's distributed trace is visible at the transport layer; peers
	// that predate the field ignore it.
	TraceID string
	// GossipHandler, when set, receives every inbound GOSSIP payload.
	// It runs on the connection's read goroutine, so it must be fast and
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
	return nil
}

// Stats is a snapshot of the transport's cumulative counters.
type Stats struct {
	// Sent counts payloads accepted by Send for a peer.
	Sent int64
	// Resent counts frames replayed from a resend buffer after reconnect.
	Resent int64
	// Delivered counts frames handed to the inbox exactly once.
	Delivered int64
	// Duplicates counts inbound frames dropped by the dedup cursor.
	Duplicates int64
	// Dials counts the TCP connections the links opened. A link takes a
	// connection from its endpoint's idle pool when one is there, so once
	// the pool is warm, plays between the same endpoints dial nothing.
	Dials int64
	// Reconnects counts re-established outbound connections (the first
	// connection of a link does not count).
	Reconnects int64
	// DialErrors counts failed dial or handshake attempts. A pooled
	// connection found dead at handshake time is replaced by a fresh dial
	// at once and does not count.
	DialErrors int64
	// Rejected counts inbound handshakes refused. The endpoint refuses
	// them, so only Endpoint.Stats reports it.
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
	// per-peer pending queues. The queues are unbounded: Send never
	// blocks, so a peer not yet reached makes this grow with the traffic
	// sent to it.
	QueueLen int
	// ResendBuffered is the instantaneous sum of sent-but-unacknowledged
	// frames held for replay across links. With delayed ACKs it reads up
	// to a few hundred frames per link mid-play and drains to zero once
	// each stream has been idle for the ACK delay.
	ResendBuffered int
}

// add sums o into s, field by field.
func (s *Stats) add(o Stats) {
	s.Sent += o.Sent
	s.Resent += o.Resent
	s.Delivered += o.Delivered
	s.Duplicates += o.Duplicates
	s.Dials += o.Dials
	s.Reconnects += o.Reconnects
	s.DialErrors += o.DialErrors
	s.Rejected += o.Rejected
	s.ConnsDropped += o.ConnsDropped
	s.Acks += o.Acks
	s.FramesIn += o.FramesIn
	s.FramesOut += o.FramesOut
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.GossipSent += o.GossipSent
	s.GossipReceived += o.GossipReceived
	s.GossipDropped += o.GossipDropped
	s.QueueLen += o.QueueLen
	s.ResendBuffered += o.ResendBuffered
}

// inbound is the receive state of one directed stream (peer -> self):
// the dedup/ordering cursor and the connection currently serving it.
type inbound struct {
	mu        sync.Mutex
	delivered uint64
	conn      *conn
}

// inboxDepth sizes the delivery channel. Every inbound stream's reader
// blocks on a full inbox, which backpressures the sending link through
// TCP, never Send; a few bursts of slack keeps the readers from stalling
// on every frame.
const inboxDepth = 256

// Transport is one player's node in one play's mesh, opened on an
// Endpoint.
type Transport struct {
	cfg   Config
	ep    *Endpoint
	ownEP bool // New made ep for this transport alone; Close closes it
	links []*link
	in    []*inbound
	inbox chan Frame

	connMu sync.Mutex
	conns  map[*conn]struct{} // the connections serving this transport's streams

	done    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	sent, resent, delivered, duplicates  atomic.Int64
	dials, reconnects, dialErrs          atomic.Int64
	chaosDrop, acks, framesIn, framesOut atomic.Int64
	bytesIn, bytesOut                    atomic.Int64
	gossipSent, gossipIn, gossipDropped  atomic.Int64
}

// New opens a transport on an endpoint of its own, listening on an
// ephemeral loopback port; Close closes both.
func New(cfg Config) (*Transport, error) {
	ep := NewEndpoint(EndpointConfig{})
	t, err := ep.Open(cfg)
	if err != nil {
		return nil, err
	}
	t.ownEP = true
	return t, nil
}

// newTransport builds a transport on ep and starts one link per peer.
func newTransport(ep *Endpoint, cfg Config) *Transport {
	t := &Transport{
		cfg:   cfg,
		ep:    ep,
		links: make([]*link, cfg.N),
		in:    make([]*inbound, cfg.N),
		inbox: make(chan Frame, inboxDepth),
		conns: make(map[*conn]struct{}),
		done:  make(chan struct{}),
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
	return t
}

// Addr returns the address peers should dial: its endpoint's.
func (t *Transport) Addr() string { return t.ep.Addr() }

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

// Send appends one payload to a peer's pending queue and returns. It
// never blocks and applies no backpressure: what the caller sends is held
// until the peer acknowledges it, so memory is bounded by the play's
// traffic. Sending to self or to an index outside [0, N) is a no-op, as
// is any Send once the transport closes. The payload buffer is owned by
// the transport from here on.
func (t *Transport) Send(to int, payload []byte) {
	if to < 0 || to >= t.cfg.N || to == t.cfg.Self || t.closing() {
		return
	}
	t.sent.Add(1)
	t.links[to].pending.push(payload)
}

// closing reports whether Close has begun.
func (t *Transport) closing() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Gossip enqueues one best-effort payload for a peer. It never blocks:
// a full gossip lane (dead or slow peer) drops the payload and reports
// false, as does gossip to self or to an index outside [0, N). Delivery
// has no ordering or exactly-once guarantee — callers are expected to
// re-gossip periodically, so any single lost frame costs one interval.
func (t *Transport) Gossip(to int, payload []byte) bool {
	if to < 0 || to >= t.cfg.N || to == t.cfg.Self || t.closing() {
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
		Dials:        t.dials.Load(),
		Reconnects:   t.reconnects.Load(),
		DialErrors:   t.dialErrs.Load(),
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

// DropConns severs every connection serving this transport's streams —
// the chaos hook behind wire.Node.DropConns and fleet.Mesh.DropConns. Links redial and replay their
// unacknowledged frames; the mesh heals without losing or duplicating a
// payload. It returns the number of connections closed.
func (t *Transport) DropConns() int {
	t.connMu.Lock()
	cs := make([]*conn, 0, len(t.conns))
	for c := range t.conns {
		cs = append(cs, c)
	}
	t.connMu.Unlock()
	for _, c := range cs {
		c.nc.Close()
	}
	t.chaosDrop.Add(int64(len(cs)))
	return len(cs)
}

// track records a connection serving one of the transport's streams, for
// DropConns and Close. It refuses once the transport is closing, so a
// connection attached concurrently with Close is never left serving it:
// Close closes done before it sweeps the set under connMu.
func (t *Transport) track(c *conn) bool {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.closing() {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

// untrack forgets a connection that no longer serves the transport.
func (t *Transport) untrack(c *conn) {
	t.connMu.Lock()
	delete(t.conns, c)
	t.connMu.Unlock()
}

// closeWriteGrace is how long Close lets a link's write or handshake in
// progress run before giving up on it. Either completes in far less with
// a peer that reads, and the connection goes back to the pool whole; one
// stuck on a peer that stopped reading is cut, and that connection is
// closed.
const closeWriteGrace = 100 * time.Millisecond

// Close tears the transport down. Its connections stay open for the
// endpoint to reuse: each link lets go of its connection once a write or
// handshake in progress has finished (or been given up after
// closeWriteGrace), and each inbound connection is detached to wait for
// its next HELLO. Frames still in flight are dropped; the consumer's
// protocol layer owns end-of-play semantics. A transport from New closes
// its endpoint too.
func (t *Transport) Close() {
	t.stopped.Do(func() {
		close(t.done)
		t.ep.unroute(t)
		var inbound []*conn
		t.connMu.Lock()
		for c := range t.conns {
			if c.addr != "" {
				_ = c.nc.SetWriteDeadline(time.Now().Add(closeWriteGrace))
			} else {
				inbound = append(inbound, c)
			}
		}
		t.connMu.Unlock()
		for _, c := range inbound {
			c.detach(t)
		}
	})
	t.wg.Wait()
	t.ep.retire(t)
	if t.ownEP {
		t.ep.Close()
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

// acker writes the cumulative ACKs of the stream an inbound connection
// serves: from the connection's reader when ackEvery frames are
// unacknowledged, and from an idle timer otherwise. A connection keeps
// one acker for its whole life and resets it for each stream it serves.
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
	if a.stopped {
		return nil
	}
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

// reset readies the acker for a new stream of transport t. It runs
// after stop and before the stream's WELCOME; as no frame of the new
// stream has been noted yet, a timer callback left over from the old
// stream finds nothing to acknowledge.
func (a *acker) reset(t *Transport, conn net.Conn) {
	a.mu.Lock()
	a.t, a.conn = t, conn
	a.cursor, a.unacked, a.seen, a.stopped = 0, 0, 0, false
	a.mu.Unlock()
}

// stop disarms the timer when the stream ends; it waits out an ACK the
// timer is writing, and no ACK is written after stop returns until the
// next reset.
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
// afterwards, and false once the transport closes. Close detaches each
// inbound connection under st.mu after closing done, so nothing is
// counted once Close has detached the stream: the endpoint's totals,
// which take the transport's counters when it closes, miss nothing.
func (t *Transport) deliver(st *inbound, f Frame) (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if t.closing() {
		return st.delivered, false
	}
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

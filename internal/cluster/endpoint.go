package cluster

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// EndpointConfig holds the deployment settings every transport on one
// endpoint shares: where it listens, what it advertises, and how it
// secures its connections.
type EndpointConfig struct {
	// ListenAddr is the TCP address the listener binds on the first Open
	// ("127.0.0.1:0" by default: loopback, ephemeral port).
	ListenAddr string
	// AdvertiseHost, when set, replaces the host in Addr(): for daemons
	// that bind a wildcard interface but advertise a routable name.
	AdvertiseHost string
	// TLS enables mutual TLS on every connection (nil: plaintext).
	TLS *TLS
}

// idleTimeout is how long a connection may rest in the idle pool before
// it is closed: far longer than the gap between back-to-back plays, short
// enough that a daemon whose traffic stopped holds no sockets for long.
// The pool needs no cap of its own: a connection is parked only after a
// link dialed or took it, so the pool never holds more connections than
// were in use at once.
const idleTimeout = 30 * time.Second

// dialTimeout bounds one dial attempt. Links redial with backoff until
// their transport closes, so mesh formation tolerates peers that bind
// late.
const dialTimeout = time.Second

// handshakeTimeout bounds how long an inbound connection may take to
// present a valid HELLO, and how long a dialer waits for the WELCOME. A
// variable only so tests can shorten it.
var handshakeTimeout = 5 * time.Second

// ErrPlayerOpen is returned by Open for a (cluster id, player) that
// already has a transport open on the endpoint.
var ErrPlayerOpen = errors.New("cluster: player already open on this endpoint")

// errEndpointClosed is returned by Open and dialConn once Close has begun,
// errTransportClosed by a handshake whose transport closed meanwhile;
// errConnClosed reports a connection whose reader has exited.
var (
	errEndpointClosed  = errors.New("cluster: endpoint closed")
	errTransportClosed = errors.New("cluster: transport closed")
	errConnClosed      = errors.New("cluster: connection closed")
)

// Endpoint is one process's attachment to the cluster network: one
// listener, shared by every transport opened on it, and the connections
// the process holds, which outlive the transports they serve. An inbound
// HELLO is routed to the transport registered for its (cluster id, To).
// An outbound connection whose transport closed waits in an idle pool,
// keyed by peer address, for the next link to that address.
type Endpoint struct {
	cfg EndpointConfig
	// The network seam (see the package doc); TLS wraps what they return.
	listen func(addr string) (net.Listener, error)
	dial   func(addr string) (net.Conn, error)

	mu      sync.Mutex
	ln      net.Listener // nil until the first Open
	closed  bool
	routes  map[route]*Transport    // inbound HELLO -> transport
	gone    []tombstone             // routes closed lately, oldest first
	open    map[*Transport]struct{} // not yet retired
	idle    map[string][]*conn      // outbound conns at rest, by address
	conns   map[*conn]struct{}      // every connection the endpoint owns
	retired Stats                   // the counters of retired transports

	rejected atomic.Int64
	wg       sync.WaitGroup // connection readers and the accept loop
}

// route names one player of one cluster: what a HELLO addresses.
type route struct {
	cluster string
	player  int
}

// tombstone remembers a route whose transport closed at a given time. A
// HELLO for it within handshakeTimeout was sent while the play was still
// running, by a peer that has not finished it yet: the endpoint welcomes
// it into a detached stream, whose frames are dropped, instead of
// refusing it, so a play's daemons may finish in any order without their
// late handshakes counting as dial errors.
type tombstone struct {
	r  route
	at time.Time
}

// NewEndpoint returns an endpoint that binds its listener on the first
// Open, so a process that never opens a transport holds no socket.
func NewEndpoint(cfg EndpointConfig) *Endpoint {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	return &Endpoint{
		cfg:    cfg,
		listen: func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) },
		dial:   func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, dialTimeout) },
		routes: make(map[route]*Transport),
		open:   make(map[*Transport]struct{}),
		idle:   make(map[string][]*conn),
		conns:  make(map[*conn]struct{}),
	}
}

// Open registers a transport for player cfg.Self of cluster cfg.ClusterID,
// binding the listener first if it is not bound yet. Peer addresses may
// be supplied now or later (SetPeerAddr); links dial lazily with retry,
// so construction order across the mesh does not matter.
func (e *Endpoint) Open(cfg Config) (*Transport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errEndpointClosed
	}
	if e.ln == nil {
		ln, err := e.listen(e.cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("cluster: listen %s: %w", e.cfg.ListenAddr, err)
		}
		e.ln = ln
		e.wg.Add(1)
		go e.acceptLoop(ln)
	}
	r := route{cfg.ClusterID, cfg.Self}
	if _, taken := e.routes[r]; taken {
		return nil, fmt.Errorf("%w: player %d of cluster %q", ErrPlayerOpen, cfg.Self, cfg.ClusterID)
	}
	t := newTransport(e, cfg)
	e.routes[r] = t
	e.open[t] = struct{}{}
	return t, nil
}

// Addr returns the address peers should dial ("" before the first Open):
// the bound listener's, with the advertise host substituted when
// configured.
func (e *Endpoint) Addr() string {
	e.mu.Lock()
	ln := e.ln
	e.mu.Unlock()
	if ln == nil {
		return ""
	}
	addr := ln.Addr().String()
	if e.cfg.AdvertiseHost == "" {
		return addr
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return net.JoinHostPort(e.cfg.AdvertiseHost, port)
}

// Stats sums the counters of every transport ever opened on the endpoint,
// closed ones included, so each counter only grows; QueueLen and
// ResendBuffered sum the open transports. Rejected counts the inbound
// handshakes the endpoint refused.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	s := e.retired
	live := make([]*Transport, 0, len(e.open))
	for t := range e.open {
		live = append(live, t)
	}
	e.mu.Unlock()
	for _, t := range live {
		s.add(t.Stats())
	}
	s.Rejected = e.rejected.Load()
	return s
}

// DropConns severs every connection the endpoint holds, serving a stream
// or at rest: the chaos hook behind mediatord's fault-injection endpoint.
// Links redial and replay their unacknowledged frames. It returns the
// number of connections closed.
func (e *Endpoint) DropConns() int {
	e.mu.Lock()
	cs := make([]*conn, 0, len(e.conns))
	for c := range e.conns {
		cs = append(cs, c)
	}
	e.mu.Unlock()
	for _, c := range cs {
		c.nc.Close()
	}
	return len(cs)
}

// Close closes every transport still open on the endpoint, then the
// listener and every connection, and waits for the endpoint's goroutines.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	live := make([]*Transport, 0, len(e.open))
	for t := range e.open {
		live = append(live, t)
	}
	e.mu.Unlock()
	for _, t := range live {
		t.Close()
	}
	e.mu.Lock()
	if e.ln != nil {
		e.ln.Close()
	}
	for c := range e.conns {
		c.nc.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// unroute stops routing HELLOs to t; retire then folds its counters into
// the endpoint's once its goroutines have exited. A transport counts in
// Stats until it is retired, so the endpoint's totals never dip.
func (e *Endpoint) unroute(t *Transport) {
	r, now := route{t.cfg.ClusterID, t.cfg.Self}, time.Now()
	e.mu.Lock()
	delete(e.routes, r)
	e.gone = append(e.pruneGone(now), tombstone{r, now})
	e.mu.Unlock()
}

// pruneGone drops the tombstones older than handshakeTimeout and returns
// the rest; e.mu is held.
func (e *Endpoint) pruneGone(now time.Time) []tombstone {
	i := 0
	for i < len(e.gone) && now.Sub(e.gone[i].at) > handshakeTimeout {
		i++
	}
	return e.gone[i:]
}

func (e *Endpoint) retire(t *Transport) {
	st := t.Stats()
	st.QueueLen, st.ResendBuffered = 0, 0
	e.mu.Lock()
	if _, ok := e.open[t]; ok {
		delete(e.open, t)
		e.retired.add(st)
	}
	e.mu.Unlock()
}

// conn is one connection, a socket or one half of a self-dial's pipe,
// owned by the endpoint for its whole life and read by one endpoint
// goroutine throughout. It serves one directed stream at a time. An
// outbound conn (addr set) is handed to a link, which writes the HELLO
// that attaches it to the link's stream; when the link's transport
// closes, the conn goes back to the idle pool for the next link to the
// same address. An inbound conn waits for a HELLO, serves the stream it
// names, and on the next HELLO is re-attached to a new stream.
type conn struct {
	ep   *Endpoint
	nc   net.Conn
	addr string        // the dialed address; "" for an accepted conn
	dead chan struct{} // closed once the reader has exited

	// The scratch a link's writer reuses while it holds the conn, kept
	// with the conn so the next play's streams reuse it too: the buffer
	// DATA frames are built in, the batch being written, and the spare
	// list swapped with the pending queue. Only the current link touches
	// them.
	wbuf  []byte
	batch []dataFrame
	spare [][]byte

	mu sync.Mutex
	// Outbound: the link the conn serves (nil at rest), and the channel
	// its handshake waits on until the WELCOME (or REJECT) arrives. ACKs
	// read while a WELCOME is due belong to the previous stream and are
	// dropped.
	link    *link
	welcome chan handshake
	idle    *time.Timer // expires the conn at rest; guarded by ep.mu
	// Inbound: the stream the conn serves (nil while it waits for a
	// HELLO): its transport, the sending peer and the stream's receive
	// state.
	tr   *Transport
	from int
	st   *inbound

	// ack writes the served stream's ACKs (inbound only).
	ack acker
}

// handshake is the listener's answer to a HELLO, as the conn's reader
// passes it to the waiting link.
type handshake struct {
	kind byte
	body []byte
	err  error
}

// cursor returns the delivery cursor a WELCOME carries, or why the
// handshake failed.
func (r handshake) cursor() (uint64, error) {
	switch {
	case r.err != nil:
		return 0, r.err
	case r.kind != kindWelcome:
		return 0, errRejected(r.kind, r.body)
	}
	return parseU64(r.body)
}

// track adds a new connection to the endpoint and counts its reader in
// the wait group; it refuses once the endpoint is closing.
func (e *Endpoint) track(c *conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.conns[c] = struct{}{}
	e.wg.Add(1)
	return true
}

// forget removes a connection whose reader has exited and closes it. A
// handshake still waiting on it fails first, so the link learns why
// before the peer can see the connection close.
func (e *Endpoint) forget(c *conn, err error) {
	c.mu.Lock()
	w := c.welcome
	c.welcome = nil
	c.mu.Unlock()
	if w != nil {
		w <- handshake{err: err}
	}
	c.nc.Close()
	close(c.dead)
	e.mu.Lock()
	delete(e.conns, c)
	e.unpool(c)
	e.mu.Unlock()
}

// acceptLoop admits inbound connections until the listener closes.
func (e *Endpoint) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil || !e.admit(nc) {
			return // listener closed, or endpoint closing
		}
	}
}

// admit takes in one inbound connection, from the listener or the far
// half of a self-dial's pipe, and starts its reader after (optional) TLS
// wrapping. It refuses, closing nc, once the endpoint is closing.
func (e *Endpoint) admit(nc net.Conn) bool {
	if e.cfg.TLS != nil {
		nc = tls.Server(nc, e.cfg.TLS.serverConfig())
	}
	c := &conn{ep: e, nc: nc, dead: make(chan struct{})}
	if !e.track(c) {
		nc.Close()
		return false
	}
	go e.readInbound(c)
	return true
}

// dialConn opens a new outbound connection to addr and starts its reader.
// A dial to the endpoint's own address opens no socket: it gets one half
// of an in-memory pipe, and the other half is admitted like an accepted
// connection, so the players an endpoint hosts talk through memory with
// the same frames, handshake and resend buffers as over the network.
func (e *Endpoint) dialConn(addr string) (*conn, error) {
	var nc net.Conn
	if addr == e.Addr() {
		var far net.Conn
		nc, far = net.Pipe()
		if !e.admit(far) {
			nc.Close()
			return nil, errEndpointClosed
		}
	} else {
		var err error
		if nc, err = e.dial(addr); err != nil {
			return nil, err
		}
	}
	if e.cfg.TLS != nil {
		nc = tls.Client(nc, e.cfg.TLS.clientConfig(addr))
	}
	c := &conn{ep: e, nc: nc, addr: addr, dead: make(chan struct{})}
	if !e.track(c) {
		nc.Close()
		return nil, errEndpointClosed
	}
	go e.readOutbound(c)
	return c, nil
}

// take hands out the most recently parked connection to addr, if any.
func (e *Endpoint) take(addr string) *conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.idle[addr]
	if len(cs) == 0 {
		return nil
	}
	c := cs[len(cs)-1]
	e.unpool(c)
	c.idle.Stop()
	return c
}

// park puts an outbound connection whose link has let go of it, with its
// stream's last frame written, back in the idle pool. A dead connection
// is left to its reader, and one parked after Close is closed.
func (e *Endpoint) park(c *conn) {
	c.unlink()
	e.mu.Lock()
	select {
	case <-c.dead:
		e.mu.Unlock()
		return
	default:
	}
	if e.closed {
		e.mu.Unlock()
		c.nc.Close()
		return
	}
	e.idle[c.addr] = append(e.idle[c.addr], c)
	if c.idle == nil {
		c.idle = time.AfterFunc(idleTimeout, func() { e.expire(c) })
	} else {
		c.idle.Reset(idleTimeout)
	}
	e.mu.Unlock()
}

// expire closes a connection that stayed at rest for idleTimeout; one
// taken meanwhile is left alone.
func (e *Endpoint) expire(c *conn) {
	e.mu.Lock()
	pooled := e.unpool(c)
	e.mu.Unlock()
	if pooled {
		c.nc.Close()
	}
}

// unpool removes c from the idle pool, reporting whether it was there;
// e.mu is held.
func (e *Endpoint) unpool(c *conn) bool {
	cs := e.idle[c.addr]
	for i, x := range cs {
		if x != c {
			continue
		}
		copy(cs[i:], cs[i+1:])
		cs[len(cs)-1] = nil
		if len(cs) == 1 {
			delete(e.idle, c.addr)
		} else {
			e.idle[c.addr] = cs[:len(cs)-1]
		}
		return true
	}
	return false
}

// dialReadBytes sizes an outbound connection's reader. It reads only
// WELCOME, REJECT and ACK frames: 13 bytes each, but for a REJECT's
// reason, which just takes more reads.
const dialReadBytes = 64

// readOutbound is an outbound connection's reader for its whole life. It
// hands a WELCOME or REJECT to the link waiting on the handshake and an
// ACK to the link the conn serves. An ACK read while no link is attached,
// or while a WELCOME is due, belongs to a stream that has gone and is
// dropped: the listener writes no ACK of the old stream after the new
// stream's WELCOME, so nothing stale can trim a new resend buffer.
func (e *Endpoint) readOutbound(c *conn) {
	defer e.wg.Done()
	fr := frameReader{r: bufio.NewReaderSize(c.nc, dialReadBytes)}
	var err error
	for {
		var kind byte
		var body []byte
		if kind, body, err = fr.next(maxHandshakeBytes); err != nil {
			break
		}
		reply := kind == kindWelcome || kind == kindReject
		c.mu.Lock()
		l, w := c.link, c.welcome
		if reply {
			c.welcome = nil
		} else if l != nil && w == nil {
			// Counted under c.mu, which unlink takes too: once the link
			// lets go of the conn, its transport's counters are final.
			l.t.framesIn.Add(1)
			l.t.bytesIn.Add(int64(5 + len(body)))
			if kind == kindAck {
				l.t.acks.Add(1)
			}
		}
		c.mu.Unlock()
		if reply {
			if w == nil {
				err = errors.New("cluster: handshake reply without a HELLO")
				break
			}
			w <- handshake{kind: kind, body: body}
			continue
		}
		if l == nil || w != nil {
			continue
		}
		if kind == kindAck {
			if n, perr := parseU64(body); perr == nil {
				l.ackTo(n)
			}
		}
	}
	e.forget(c, err)
}

// unlink lets go of an outbound conn: ACKs read from now on are dropped
// until a link's HELLO attaches it again.
func (c *conn) unlink() {
	c.mu.Lock()
	c.link = nil
	c.mu.Unlock()
}

// open attaches an outbound connection to l's stream: it writes the HELLO
// and waits for the WELCOME carrying the receiver's delivery cursor. A
// failed handshake closes the connection. When l's transport closes
// first, a WELCOME that arrives within closeWriteGrace still puts the
// connection back in the idle pool, as Close does for a write in
// progress, so a play that ends before all its streams opened wastes no
// connection.
func (c *conn) open(l *link, h hello) (cursor uint64, err error) {
	w := make(chan handshake, 1)
	c.mu.Lock()
	c.link, c.welcome = l, w
	c.mu.Unlock()
	parked := false
	defer func() {
		if err != nil && !parked {
			c.unlink()
			c.nc.Close()
		}
	}()
	_ = c.nc.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if err := writeHello(c.nc, h); err != nil {
		return 0, err
	}
	_ = c.nc.SetWriteDeadline(time.Time{})
	timer := time.NewTimer(handshakeTimeout)
	defer timer.Stop()
	select {
	case r := <-w:
		return r.cursor()
	case <-c.dead:
		return 0, errConnClosed
	case <-timer.C:
		return 0, errors.New("cluster: handshake timed out")
	case <-l.t.done:
	}
	grace := time.NewTimer(closeWriteGrace)
	defer grace.Stop()
	select {
	case r := <-w:
		if _, err := r.cursor(); err != nil {
			return 0, err
		}
		c.ep.park(c)
		parked = true
	case <-c.dead:
	case <-grace.C:
	}
	return 0, errTransportClosed
}

// readInbound is an accepted connection's reader for its whole life. The
// first frame must be a valid HELLO; after it, DATA frames go to the
// stream the last HELLO attached, through its dedup cursor, and a
// further HELLO re-attaches the connection to a new stream. Frames for a
// stream whose transport has closed are dropped.
func (e *Endpoint) readInbound(c *conn) {
	defer e.wg.Done()
	// One buffered reader for the connection's whole life: a burst of
	// frames costs one read, and the HELLO read must not strand the bytes
	// behind it.
	fr := frameReader{r: bufio.NewReader(c.nc)}
	_ = c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	served, refused := false, false
	var err error
	for {
		limit := MaxFrameBytes
		if !served {
			limit = maxHandshakeBytes
		}
		var kind byte
		var body []byte
		if kind, body, err = fr.next(limit); err != nil {
			break
		}
		if kind == kindHello {
			if err = e.attach(c, body); err != nil {
				refused = true
				break
			}
			served = true
			continue
		}
		if !served {
			err = errors.New("cluster: first frame is not a HELLO")
			break
		}
		// Counted under c.mu, which detach takes to end the stream, so
		// nothing is counted once Close has detached it: the transport's
		// counters are final when it retires.
		c.mu.Lock()
		t, from, st := c.tr, c.from, c.st
		if t != nil {
			t.framesIn.Add(1)
			t.bytesIn.Add(int64(5 + len(body)))
		}
		c.mu.Unlock()
		if t == nil {
			continue // the stream's transport has closed
		}
		switch kind {
		case kindData:
			var seq uint64
			var payload []byte
			if seq, payload, err = parseData(body); err != nil {
				break
			}
			cursor, ok := t.deliver(st, Frame{From: from, To: t.cfg.Self, Seq: seq, Payload: payload})
			if !ok {
				c.detach(t) // the transport closed while the frame waited
				continue
			}
			err = c.ack.note(cursor)
		default:
			// Tolerate unknown-but-framed kinds: newer peers' kinds, and
			// kindReserved6 from older ones.
		}
		if err != nil {
			break
		}
	}
	if !served && !refused {
		e.rejected.Add(1)
	}
	c.detach(nil)
	e.forget(c, err)
}

// attach verifies a HELLO and attaches the connection to the stream it
// names, superseding any other connection of that stream, then writes
// the WELCOME. The stream the connection served before is detached
// first, so its acker has stopped, and any ACK its timer was writing is
// on the wire, before the WELCOME: the dialer reads no ACK of the old
// stream after it. A refused HELLO is answered with a REJECT and an
// error, which ends the connection.
func (e *Endpoint) attach(c *conn, body []byte) error {
	h, err := parseHello(body)
	if err != nil {
		e.rejected.Add(1)
		return err
	}
	c.detach(nil)
	t, reason := e.route(h)
	if reason != "" {
		e.rejected.Add(1) // counted before the dialer can read the REJECT
		_ = writeReject(c.nc, reason)
		return rejectError(reason)
	}
	if t != nil {
		c.ack.reset(t, c.nc)
		c.mu.Lock()
		c.tr, c.from, c.st = t, h.From, t.in[h.From]
		c.mu.Unlock()
		if !t.track(c) {
			c.detach(t)
			t = nil
		}
	}
	if t == nil {
		// The stream's transport has just closed: a detached stream.
		_ = c.nc.SetReadDeadline(time.Now().Add(idleTimeout + handshakeTimeout))
		return writeWelcome(c.nc, 0)
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	st := t.in[h.From]
	st.mu.Lock()
	if st.conn != nil && st.conn != c {
		st.conn.nc.Close() // a fresh handshake supersedes the old connection
	}
	st.conn = c
	cursor := st.delivered
	st.mu.Unlock()
	return writeWelcome(c.nc, cursor)
}

// route finds the transport a HELLO addresses (nil for a route with a
// tombstone), or the reason to refuse it.
func (e *Endpoint) route(h hello) (*Transport, string) {
	if h.Version != ProtocolVersion {
		return nil, fmt.Sprintf("version %d, want %d", h.Version, ProtocolVersion)
	}
	r := route{h.ClusterID, h.To}
	e.mu.Lock()
	t := e.routes[r]
	gone := false
	if t == nil {
		e.gone = e.pruneGone(time.Now())
		for _, g := range e.gone {
			gone = gone || g.r == r
		}
	}
	e.mu.Unlock()
	switch {
	case gone:
		return nil, ""
	case t == nil:
		return nil, fmt.Sprintf("no player %d of cluster %q here", h.To, h.ClusterID)
	case h.From < 0 || h.From >= t.cfg.N || h.From == t.cfg.Self:
		return nil, fmt.Sprintf("bad peer index %d", h.From)
	}
	return t, ""
}

// detach ends the inbound stream the connection serves, if its transport
// is t (any transport when t is nil). The stream's acker stops, waiting
// out an ACK its timer is writing, and frames read from now on are
// dropped until a HELLO re-attaches the connection, which must come
// within idleTimeout plus the handshake timeout: a dialer closes a
// connection at rest after idleTimeout.
func (c *conn) detach(t *Transport) {
	c.mu.Lock()
	if c.tr == nil || (t != nil && c.tr != t) {
		c.mu.Unlock()
		return
	}
	tr, st := c.tr, c.st
	c.tr, c.st = nil, nil
	c.mu.Unlock()
	c.ack.stop()
	st.mu.Lock()
	if st.conn == c {
		st.conn = nil
	}
	st.mu.Unlock()
	tr.untrack(c)
	_ = c.nc.SetReadDeadline(time.Now().Add(idleTimeout + handshakeTimeout))
}

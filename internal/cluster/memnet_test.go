package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// memNet is an in-memory network for the transport's tests. Each address
// names a listener; a dial connects a pair of buffered pipes to it, so no
// test opens a socket and a write never blocks. A fault plan, armed while
// traffic is quiet, makes the network misbehave at points counted in
// frames and dials rather than read off the clock, so the same traffic
// meets the same faults on every run.
type memNet struct {
	mu      sync.Mutex
	lns     map[string]*memListener
	dialers map[*memConn]struct{} // the dialing ends of open connections
	frames  map[string]int        // DATA frames written per stream since arming
	plan    *faultPlan

	wakeMu sync.Mutex
	wake   chan struct{} // closed and replaced on every network event
}

func newMemNet() *memNet {
	return &memNet{
		lns:     make(map[string]*memListener),
		dialers: make(map[*memConn]struct{}),
		frames:  make(map[string]int),
		wake:    make(chan struct{}),
	}
}

// hostPair names two hosts, in either order.
type hostPair [2]string

func (p hostPair) joins(a, b string) bool {
	return (p[0] == a && p[1] == b) || (p[0] == b && p[1] == a)
}

// faultPlan is one fault schedule. Its streams are named by streamKey.
type faultPlan struct {
	// dropStream's connection dies with its dropAt-th DATA frame in
	// flight: the frames before it arrive, that frame and the rest of its
	// write are lost, and both ends see the peer hang up.
	dropStream string
	dropAt     int
	// Every byte between the hosts of delayPair arrives delay after it
	// was written.
	delayPair hostPair
	delay     time.Duration
	// When partStream's partAt-th DATA frame is written, the hosts of
	// partPair are cut apart: that frame is lost as in a drop, every
	// connection between them dies, and each host's next refuse dials to
	// the other are refused. Then the partition heals.
	partStream string
	partAt     int
	partPair   hostPair
	refuse     int

	dropped, parted bool
	refused         map[string]int // dials refused, by dialing host
}

// streamKey names the directed stream a HELLO opens.
func streamKey(cluster string, from, to int) string {
	return fmt.Sprintf("%s %d>%d", cluster, from, to)
}

// arm installs plan and restarts the DATA frame counts it is keyed to.
func (n *memNet) arm(plan *faultPlan) {
	n.mu.Lock()
	plan.refused = make(map[string]int)
	n.plan = plan
	clear(n.frames)
	n.mu.Unlock()
}

// dataFrames is how many DATA frames have been written on stream since
// the last arm.
func (n *memNet) dataFrames(stream string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.frames[stream]
}

// bump wakes every await.
func (n *memNet) bump() {
	n.wakeMu.Lock()
	close(n.wake)
	n.wake = make(chan struct{})
	n.wakeMu.Unlock()
}

// await waits until cond holds and reports false if it does not within
// 10 s. It re-checks cond after every network event (a dial, an accept, a
// write, a read starting, a close) and every millisecond besides, since
// the transport often counts a frame or a failure just after the network
// operation that settled it.
func (n *memNet) await(cond func() bool) bool {
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		n.wakeMu.Lock()
		wake := n.wake
		n.wakeMu.Unlock()
		if cond() {
			return true
		}
		select {
		case <-wake:
		case <-tick.C:
		case <-deadline.C:
			return cond()
		}
	}
}

// listen binds addr.
func (n *memNet) listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.lns[addr]; taken {
		return nil, fmt.Errorf("mem listen %s: %w", addr, syscall.EADDRINUSE)
	}
	ln := &memListener{net: n, addr: addr, queue: make(chan *memConn, 64), done: make(chan struct{})}
	n.lns[addr] = ln
	return ln, nil
}

// dial connects host from to the listener at addr, unless a partition
// refuses it.
func (n *memNet) dial(from, addr string) (net.Conn, error) {
	defer n.bump()
	n.mu.Lock()
	if p := n.plan; p != nil && p.parted && p.refused[from] < p.refuse && p.partPair.joins(from, addr) {
		p.refused[from]++
		n.mu.Unlock()
		return nil, fmt.Errorf("mem dial %s: partitioned: %w", addr, syscall.ECONNREFUSED)
	}
	ln := n.lns[addr]
	if ln == nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("mem dial %s: %w", addr, syscall.ECONNREFUSED)
	}
	up, down := newPipe(), newPipe()
	client := &memConn{net: n, local: from, remote: addr, in: down, out: up, tap: &frameTap{}}
	server := &memConn{net: n, local: addr, remote: from, in: up, out: down}
	n.dialers[client] = struct{}{}
	n.mu.Unlock()
	select {
	case ln.queue <- server:
		return client, nil
	case <-ln.done:
		client.Close()
		return nil, fmt.Errorf("mem dial %s: %w", addr, syscall.ECONNREFUSED)
	}
}

// delayOf is the delay on bytes from host a to host b; n.mu is held.
func (n *memNet) delayOf(a, b string) time.Duration {
	if p := n.plan; p != nil && p.delayPair.joins(a, b) {
		return p.delay
	}
	return 0
}

// onData counts one DATA frame written on stream and reports whether the
// plan cuts the connection there, and whether that cut is a partition;
// n.mu is held.
func (n *memNet) onData(stream string) (cut, part bool) {
	n.frames[stream]++
	p := n.plan
	switch {
	case p == nil:
	case !p.dropped && stream == p.dropStream && n.frames[stream] == p.dropAt:
		p.dropped = true
		return true, false
	case !p.parted && stream == p.partStream && n.frames[stream] == p.partAt:
		p.parted = true
		return true, true
	}
	return false, false
}

// memListener is a listener on a memNet.
type memListener struct {
	net  *memNet
	addr string
	// queue is the accept backlog, as a socket's listen queue: a dial
	// completes without waiting for Accept, up to 64 at once.
	queue chan *memConn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.queue:
		l.net.bump()
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.lns, l.addr)
		l.net.mu.Unlock()
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }

// memConn is one end of a connection on a memNet: it reads in and writes
// out, and its peer the other way round. The dialing end runs what it
// writes through a frame tap, which counts DATA frames per stream for the
// fault plan.
type memConn struct {
	net           *memNet
	local, remote string
	in, out       *pipe
	tap           *frameTap // dialing end only

	mu            sync.Mutex
	writeDeadline time.Time
}

func (c *memConn) Read(b []byte) (int, error) {
	c.net.bump()
	return c.in.read(b)
}

func (c *memConn) Write(b []byte) (int, error) {
	defer c.net.bump()
	c.mu.Lock()
	wd := c.writeDeadline
	c.mu.Unlock()
	if !wd.IsZero() && !time.Now().Before(wd) {
		return 0, os.ErrDeadlineExceeded
	}
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := c.out.writeErr(); err != nil {
		return 0, err // the tap counts only frames that go out
	}
	at, cut, part := -1, false, false
	if c.tap != nil {
		at = c.tap.feed(b, func(stream string) bool {
			cut, part = n.onData(stream)
			return cut
		})
	}
	delay := n.delayOf(c.local, c.remote)
	if at < 0 {
		if err := c.out.write(b, delay); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	_ = c.out.write(b[:at], delay)
	if !part {
		c.sever()
		return at, syscall.EPIPE
	}
	for d := range n.dialers {
		if n.plan.partPair.joins(d.local, d.remote) {
			d.sever()
		}
	}
	return at, syscall.EPIPE
}

// sever cuts the connection as a network fault does: each end reads what
// is already on its way, then sees the peer hang up, and writes fail.
func (c *memConn) sever() {
	c.in.closeWrite(syscall.EPIPE)
	c.out.closeWrite(syscall.EPIPE)
}

// Close closes this end: its reads fail at once, the peer reads what is
// on its way and then EOF, and the peer's writes fail.
func (c *memConn) Close() error {
	c.in.closeRead()
	c.out.closeWrite(net.ErrClosed)
	if c.tap != nil {
		c.net.mu.Lock()
		delete(c.net.dialers, c)
		c.net.mu.Unlock()
	}
	c.net.bump()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr(c.local) }
func (c *memConn) RemoteAddr() net.Addr { return memAddr(c.remote) }

func (c *memConn) SetDeadline(t time.Time) error {
	c.SetWriteDeadline(t)
	return c.SetReadDeadline(t)
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.setDeadline(t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}

// pipe carries one direction of a connection: an unbounded queue of the
// chunks written, each readable from its arrival time on.
type pipe struct {
	mu       sync.Mutex
	cond     sync.Cond
	chunks   []chunk
	werr     error // set: writes fail with it, and reads end in EOF once drained
	rerr     error // set: the reading end closed, so reads fail with it
	deadline time.Time
}

type chunk struct {
	b  []byte
	at time.Time
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond.L = &p.mu
	return p
}

func (p *pipe) write(b []byte, delay time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.werr != nil {
		return p.werr
	}
	if len(b) > 0 {
		p.chunks = append(p.chunks, chunk{b: append([]byte(nil), b...), at: time.Now().Add(delay)})
		p.cond.Broadcast()
	}
	return nil
}

// writeErr is the error a write would fail with now.
func (p *pipe) writeErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.werr
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		now := time.Now()
		var wakeAt time.Time
		switch {
		case p.rerr != nil:
			return 0, p.rerr
		case len(p.chunks) > 0 && !p.chunks[0].at.After(now):
			n := copy(b, p.chunks[0].b)
			if p.chunks[0].b = p.chunks[0].b[n:]; len(p.chunks[0].b) == 0 {
				p.chunks[0] = chunk{}
				p.chunks = p.chunks[1:]
			}
			return n, nil
		case len(p.chunks) > 0:
			wakeAt = p.chunks[0].at
		case p.werr != nil:
			return 0, io.EOF
		}
		if !p.deadline.IsZero() {
			if !now.Before(p.deadline) {
				return 0, os.ErrDeadlineExceeded
			}
			if wakeAt.IsZero() || p.deadline.Before(wakeAt) {
				wakeAt = p.deadline
			}
		}
		var timer *time.Timer
		if !wakeAt.IsZero() {
			timer = time.AfterFunc(wakeAt.Sub(now), func() {
				p.mu.Lock()
				p.cond.Broadcast()
				p.mu.Unlock()
			})
		}
		p.cond.Wait()
		if timer != nil {
			timer.Stop()
		}
	}
}

// closeWrite ends the writing side: writes fail with err, and the reader
// sees EOF once it has read what is queued.
func (p *pipe) closeWrite(err error) {
	p.mu.Lock()
	if p.werr == nil {
		p.werr = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// closeRead closes the reading end: reads fail at once, and writes fail
// as on a connection whose peer is gone.
func (p *pipe) closeRead() {
	p.mu.Lock()
	p.rerr = net.ErrClosed
	if p.werr == nil {
		p.werr = syscall.EPIPE
	}
	p.chunks = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) setDeadline(t time.Time) {
	p.mu.Lock()
	p.deadline = t
	p.cond.Broadcast()
	p.mu.Unlock()
}

// frameTap follows the frames a dialing end writes, whole or split
// across writes, to learn which stream its connection carries (from the
// last HELLO) and where each DATA frame begins.
type frameTap struct {
	head   []byte // the current frame so far: its header, and a HELLO's body
	left   int    // bytes of the current frame's body still to come
	stream string // the stream the last HELLO opened
}

// feed follows one write, calling data with the stream of each DATA frame
// that begins in it; when data reports true, feed stops and returns the
// offset in b at which that frame begins (0 if it began in an earlier
// write). It returns -1 otherwise.
func (f *frameTap) feed(b []byte, data func(stream string) bool) int {
	start := 0
	for i := 0; i < len(b); {
		if len(f.head) < 5 {
			if len(f.head) == 0 {
				start = i
			}
			take := min(5-len(f.head), len(b)-i)
			f.head = append(f.head, b[i:i+take]...)
			i += take
			if len(f.head) < 5 {
				break
			}
			f.left = int(binary.BigEndian.Uint32(f.head)) - 1
			if f.head[4] == kindData && data(f.stream) {
				return start
			}
		} else {
			take := min(f.left, len(b)-i)
			if f.head[4] == kindHello && binary.BigEndian.Uint32(f.head) <= maxHandshakeBytes {
				f.head = append(f.head, b[i:i+take]...)
			}
			i += take
			f.left -= take
		}
		if len(f.head) >= 5 && f.left <= 0 {
			if f.head[4] == kindHello {
				if h, err := parseHello(f.head[5:]); err == nil {
					f.stream = streamKey(h.ClusterID, h.From, h.To)
				}
			}
			f.head = f.head[:0]
		}
	}
	return -1
}

package cluster

import (
	"crypto/tls"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// dataFrame is one sent-but-unacknowledged frame in a link's resend
// buffer.
type dataFrame struct {
	seq     uint64
	payload []byte
}

// sendQueue is a FIFO of payloads that never blocks its producers: push
// appends under a mutex and signals a one-slot wake channel, and the
// single consumer takes everything pending in one swap. Its memory is
// what the traffic puts in it, not a capacity fixed in advance.
type sendQueue struct {
	mu    sync.Mutex
	items [][]byte
	wake  chan struct{}
}

func newSendQueue() sendQueue { return sendQueue{wake: make(chan struct{}, 1)} }

// push appends one payload and wakes the consumer.
func (q *sendQueue) push(payload []byte) {
	q.mu.Lock()
	q.items = append(q.items, payload)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default: // a wake is already pending; the consumer takes this too
	}
}

// swap hands the consumer every pending payload and keeps spare, emptied,
// as the next pending list, so the two slices alternate without
// allocating. The consumer must clear what it got before passing it back.
func (q *sendQueue) swap(spare [][]byte) [][]byte {
	q.mu.Lock()
	got := q.items
	q.items = spare[:0]
	q.mu.Unlock()
	return got
}

func (q *sendQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// link is one outbound stream (self -> to): a pending queue that Send
// appends to without blocking, a resend buffer of unacknowledged frames,
// and a writer goroutine that holds one connection at a time — taking
// it from the endpoint's idle pool or dialing, handshaking, replaying,
// and starting over when the connection dies, until the transport
// closes. Per-peer queues mean a slow or dead peer holds up only its own
// stream; no global mutex serializes writes to unrelated peers.
type link struct {
	t       *Transport
	to      int
	pending sendQueue
	gossip  chan []byte // best-effort lane; dropped, never backpressured

	mu      sync.Mutex
	addr    string
	nextSeq uint64
	buf     []dataFrame // sent, not yet acknowledged; seq-ascending

	addrKnown chan struct{}
	addrOnce  sync.Once
}

// gossipQueueDepth bounds the per-link best-effort lane. Gossip is
// periodic and self-healing, so a handful of buffered digests is plenty;
// anything beyond that is stale by construction and better dropped.
const gossipQueueDepth = 8

func newLink(t *Transport, to int) *link {
	return &link{
		t:         t,
		to:        to,
		pending:   newSendQueue(),
		gossip:    make(chan []byte, gossipQueueDepth),
		addrKnown: make(chan struct{}),
	}
}

// setAddr records the peer's dial address and unblocks the writer the
// first time one is known. Later updates (a peer that moved) take effect
// on the next redial.
func (l *link) setAddr(addr string) {
	l.mu.Lock()
	l.addr = addr
	l.mu.Unlock()
	l.addrOnce.Do(func() { close(l.addrKnown) })
}

func (l *link) currentAddr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addr
}

// enqueueGossip adds one payload to the best-effort lane. It never
// blocks: a full lane (dead or slow peer) drops the digest and reports
// false — the next gossip interval carries fresher state anyway.
func (l *link) enqueueGossip(payload []byte) bool {
	select {
	case l.gossip <- payload:
		return true
	default:
		return false
	}
}

// run is the link's writer loop: wait for an address, get a connection
// and open the stream on it, replay the unacknowledged tail, then pump
// the pending queue — and start over whenever the connection dies. Every
// frame stays in the resend buffer until the receiver's cumulative ack
// covers it, so a connection drop loses nothing. When the transport
// closes, a healthy connection goes back to the endpoint's idle pool.
func (l *link) run() {
	defer l.t.wg.Done()
	select {
	case <-l.addrKnown:
	case <-l.t.done:
		return
	}
	backoff := 20 * time.Millisecond
	served := false
	for !l.t.closing() {
		c, cursor, err := l.connect()
		if err != nil {
			if err == errTransportClosed || err == errEndpointClosed {
				return
			}
			l.t.dialErrs.Add(1)
			if !sleepFor(backoff, l.t.done) {
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 20 * time.Millisecond
		if !l.t.track(c) {
			l.t.ep.park(c) // transport closing
			return
		}
		if served {
			l.t.reconnects.Add(1)
		}
		served = true
		err = l.serve(c, cursor)
		l.t.untrack(c)
		if err != nil {
			c.unlink()
			c.nc.Close()
			continue
		}
		l.t.ep.park(c)
	}
}

// connect gets a connection to the peer, from the endpoint's idle pool
// or by dialing, and opens the link's stream on it, returning the
// receiver's delivery cursor. A pooled connection whose handshake shows
// it died at rest is replaced at once, by the next pooled one or a fresh
// dial; any other failure, a timeout or a REJECT, is returned for run to
// count and back off from.
func (l *link) connect() (*conn, uint64, error) {
	h := hello{
		Version:   ProtocolVersion,
		ClusterID: l.t.cfg.ClusterID,
		From:      l.t.cfg.Self,
		To:        l.to,
		TraceID:   l.t.cfg.TraceID,
	}
	for !l.t.closing() {
		addr := l.currentAddr()
		c := l.t.ep.take(addr)
		pooled := c != nil
		if !pooled {
			l.t.dials.Add(1)
			var err error
			if c, err = l.t.ep.dial(addr); err != nil {
				return nil, 0, err
			}
		}
		cursor, err := c.open(l, h)
		if err == nil {
			return c, cursor, nil
		}
		if !pooled || !diedAtRest(err) {
			return nil, 0, err
		}
	}
	return nil, 0, errTransportClosed
}

// diedAtRest reports whether a handshake error shows the connection was
// dead before the HELLO: its reader had exited, or the HELLO's write or
// the reply's read hit a closed or reset connection. A peer that is alive
// but does not answer in time is not dead, and its timeout counts.
func diedAtRest(err error) bool {
	return errors.Is(err, errConnClosed) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// maxBatchBytes caps one coalesced write: a link writes whatever is
// pending in writes of at most this many bytes of frames. Well above a
// protocol burst at n=5, and small enough that the per-connection
// scratch buffer stays modest.
const maxBatchBytes = 64 << 10

// serve writes the link's stream on one connection: replay everything
// past the receiver's cursor, then write pending payloads as they
// arrive. Each pass takes everything pending, stamps each payload with
// the next stream sequence number and puts it in the resend buffer
// *before* the write, so a failed write leaves the whole batch safely
// buffered, then issues the batch in as few writes as maxBatchBytes
// allows. The connection's reader trims the buffer on each ACK; its exit
// (read error) closes c.dead, so an idle link still notices a dead
// connection. serve returns nil when the transport closes with the
// connection healthy, and the error that broke it otherwise.
func (l *link) serve(c *conn, cursor uint64) error {
	// The receiver has everything up to cursor; drop that prefix and
	// replay the rest in order. Every DATA frame is built in the
	// connection's one scratch buffer.
	l.ackTo(cursor)
	var written int
	var err error
	c.wbuf, written, err = l.writeFrames(c.nc, c.wbuf, l.replaySnapshot())
	l.t.resent.Add(int64(written))
	if err != nil {
		return err
	}

	var payloads [][]byte
	var batch []dataFrame
	for {
		select {
		case <-l.pending.wake:
			if l.t.closing() {
				return nil // the transport is closing: leave this batch
			}
			payloads = l.pending.swap(payloads)
			batch = l.stamp(batch[:0], payloads)
			clear(payloads) // the batch and resend buffer hold them now
			c.wbuf, _, err = l.writeFrames(c.nc, c.wbuf, batch)
			clear(batch) // drop payload references until the next pass
			if err != nil {
				return err // the batch stays buffered; the redial replays it
			}
		case payload := <-l.gossip:
			// Best effort: no sequence number, no resend buffer. A write
			// error just drops the digest along with the connection.
			if err := writeRaw(c.nc, kindGossip, payload); err != nil {
				return err
			}
			l.t.gossipSent.Add(1)
			l.t.framesOut.Add(1)
			l.t.bytesOut.Add(int64(5 + len(payload)))
		case <-c.dead:
			return errConnClosed
		case <-l.t.done:
			return nil
		}
	}
}

// depths reports the link's instantaneous pending and resend-buffer
// sizes.
func (l *link) depths() (pending, buffered int) {
	l.mu.Lock()
	buffered = len(l.buf)
	l.mu.Unlock()
	return l.pending.len(), buffered
}

// stamp gives each payload the next stream sequence number, appends it
// to the resend buffer and to batch, and returns batch.
func (l *link) stamp(batch []dataFrame, payloads [][]byte) []dataFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, payload := range payloads {
		l.nextSeq++
		f := dataFrame{seq: l.nextSeq, payload: payload}
		l.buf = append(l.buf, f)
		batch = append(batch, f)
	}
	return batch
}

// writeFrames writes frames as DATA frames built in scratch, one write
// per maxBatchBytes, and returns scratch for reuse and how many frames
// were written. Callers that keep scratch copy each payload once and
// allocate only while scratch grows.
func (l *link) writeFrames(w io.Writer, scratch []byte, frames []dataFrame) ([]byte, int, error) {
	written := 0
	for written < len(frames) {
		b, i := scratch[:0], written
		for ; i < len(frames) && len(b) < maxBatchBytes; i++ {
			b = appendData(b, frames[i].seq, frames[i].payload)
		}
		scratch = b
		if _, err := w.Write(b); err != nil {
			return scratch, written, err
		}
		l.t.framesOut.Add(int64(i - written))
		l.t.bytesOut.Add(int64(len(b)))
		written = i
	}
	return scratch, written, nil
}

// ackTo drops every buffered frame the cumulative ack n covers, trimming
// the buffer in place.
func (l *link) ackTo(n uint64) {
	l.mu.Lock()
	i := 0
	for i < len(l.buf) && l.buf[i].seq <= n {
		i++
	}
	if i > 0 {
		kept := copy(l.buf, l.buf[i:])
		clear(l.buf[kept:]) // release the acknowledged payloads
		l.buf = l.buf[:kept]
	}
	l.mu.Unlock()
}

// replaySnapshot copies the current resend buffer for replay on a fresh
// connection.
func (l *link) replaySnapshot() []dataFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]dataFrame(nil), l.buf...)
}

// errRejected shapes a REJECT (or unexpected) handshake reply into an
// error.
type rejectError string

func (e rejectError) Error() string { return "cluster: handshake rejected: " + string(e) }

func errRejected(kind byte, body []byte) error {
	if kind == kindReject {
		return rejectError(body)
	}
	return rejectError("unexpected frame kind during handshake")
}

// sleepFor waits d unless done closes first; it reports whether the
// caller should continue.
func sleepFor(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// tlsServer wraps an accepted connection in the mutual-TLS server side.
func tlsServer(c net.Conn, t *TLS) net.Conn { return tls.Server(c, t.serverConfig()) }

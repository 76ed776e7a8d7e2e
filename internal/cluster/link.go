package cluster

import (
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
	addrSet sync.Once // the first setAddr starts the writer; later ones do nothing

	mu      sync.Mutex
	nextSeq uint64
	buf     []dataFrame  // sent, not yet acknowledged; seq-ascending
	box     *[]dataFrame // buf's box in resendBufs: nil before the first frame, and once released
}

// resendBufs recycles resend buffers across plays: a link takes one at
// its first frame and puts it back, emptied, when its writer ends.
var resendBufs = sync.Pool{New: func() any { return new([]dataFrame) }}

// setAddr starts the link's writer on the peer's dial address, with a
// connection at rest to it reserved for the first stream, if the
// endpoint's pool has one: the stream's connection is claimed when the
// play is set up, however late the writer runs. A peer's address is set
// once; a later call is ignored.
func (l *link) setAddr(addr string) {
	l.addrSet.Do(func() {
		if l.t.startWriter() {
			go l.run(addr, l.t.ep.take(addr))
		}
	})
}

// run is the link's writer loop: get a connection and open the stream on
// it, replay the unacknowledged tail, then pump the pending queue — and
// start over whenever the connection dies. Every frame stays in the
// resend buffer until the receiver's cumulative ack covers it, so a
// connection drop loses nothing. When the transport closes, a healthy
// connection goes back to the endpoint's idle pool. The first stream is
// opened even if the transport closed before the writer ran, on the
// connection held for it or a new one, so every link of a play leaves
// one connection at rest and the next play between the same endpoints
// dials nothing.
func (l *link) run(addr string, held *conn) {
	defer l.t.wg.Done()
	defer l.release()
	backoff := 20 * time.Millisecond
	served := false
	for first := true; first || !l.t.closing(); first = false {
		c, cursor, err := l.connect(addr, held, !first)
		held = nil
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

// connect opens the link's stream to addr on c, the connection reserved
// for it, or else on one taken from the endpoint's idle pool (a redial
// only) or dialed, and returns the receiver's delivery cursor. A pooled
// connection whose handshake shows it died at rest is replaced at once,
// by the next pooled one or a fresh dial; any other failure, a timeout
// or a REJECT, is returned for run to count and back off from.
func (l *link) connect(addr string, c *conn, redial bool) (*conn, uint64, error) {
	h := hello{
		Version:   ProtocolVersion,
		ClusterID: l.t.cfg.ClusterID,
		From:      l.t.cfg.Self,
		To:        l.to,
	}
	for {
		if c == nil && redial {
			c = l.t.ep.take(addr)
		}
		pooled := c != nil
		if !pooled {
			l.t.dials.Add(1)
			var err error
			if c, err = l.t.ep.dialConn(addr); err != nil {
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
		c, redial = nil, true
	}
}

// diedAtRest reports whether a handshake error shows the connection was
// dead before the HELLO: its reader had exited, or the HELLO's write or
// the reply's read hit a closed or reset connection. A peer that is alive
// but does not answer in time is not dead, and its timeout counts.
func diedAtRest(err error) bool {
	return errors.Is(err, errConnClosed) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) ||
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

	payloads, batch := c.spare, c.batch
	defer func() { c.spare, c.batch = payloads, batch }()
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
		case <-c.dead:
			return errConnClosed
		case <-l.t.done:
			return nil
		}
	}
}

// stamp gives each payload the next stream sequence number, appends it
// to the resend buffer and to batch, and returns batch.
func (l *link) stamp(batch []dataFrame, payloads [][]byte) []dataFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.box == nil {
		l.box = resendBufs.Get().(*[]dataFrame)
		l.buf = *l.box
	}
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

// release puts the resend buffer, emptied, back in resendBufs when the
// writer ends. It is swapped out under l.mu, so a late ackTo, from a
// reader that read an ACK before the connection let go of the link,
// finds an empty buffer, never one another link now owns.
func (l *link) release() {
	l.mu.Lock()
	buf, box := l.buf, l.box
	l.buf, l.box = nil, nil
	l.mu.Unlock()
	if box != nil {
		clear(buf)
		*box = buf[:0]
		resendBufs.Put(box)
	}
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

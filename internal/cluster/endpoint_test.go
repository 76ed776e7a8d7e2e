package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"
)

// pair opens player 0 of cluster id on a and player 1 on b, addressed to
// each other.
func pair(t *testing.T, a, b *Endpoint, id string) (*Transport, *Transport) {
	t.Helper()
	ta, err := a.Open(Config{Self: 0, N: 2, ClusterID: id})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Open(Config{Self: 1, N: 2, ClusterID: id})
	if err != nil {
		t.Fatal(err)
	}
	ta.SetPeerAddr(1, tb.Addr())
	tb.SetPeerAddr(0, ta.Addr())
	return ta, tb
}

// openOwn opens cfg on an endpoint of the test's own at host of the
// in-memory network mn, closed at cleanup, so the test can read the
// endpoint's refusals.
func openOwn(t *testing.T, mn *memNet, host string, cfg Config) (*Endpoint, *Transport) {
	t.Helper()
	ep := mn.endpoint(t, host, EndpointConfig{})
	tr, err := ep.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ep, tr
}

// exchange sends msgs payloads each way between a pair and checks both
// arrive exactly once, in order.
func exchange(t *testing.T, ta, tb *Transport, msgs int) {
	t.Helper()
	for m := 0; m < msgs; m++ {
		ta.Send(1, payload(0, m))
		tb.Send(0, payload(1, m))
	}
	expectInOrder(t, collect(t, tb, msgs, 10*time.Second), 1, msgs)
	got := collect(t, ta, msgs, 10*time.Second)
	if idxs := got[1]; len(idxs) != msgs {
		t.Fatalf("player 0 got %d payloads from 1, want %d", len(idxs), msgs)
	}
}

// receive reads count frames from tr's inbox and checks they continue
// the stream from player 0 at sequence number next, each carrying the
// payload sent as number seq-1.
func receive(t *testing.T, tr *Transport, next uint64, count int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; i < count; i++ {
		select {
		case f := <-tr.Inbox():
			if f.From != 0 || f.Seq != next || !bytes.Equal(f.Payload, payload(0, int(next-1))) {
				t.Fatalf("frame %d of stream 0->%d: from %d seq %d payload %x", next, f.To, f.From, f.Seq, f.Payload)
			}
			next++
		case <-deadline:
			t.Fatalf("timed out at frame %d", next)
		}
	}
}

// TestEndpointReusesConnections: plays after the first between the same
// two endpoints take the connections the earlier plays left at rest, so
// they dial nothing, and each still delivers exactly once, in order.
func TestEndpointReusesConnections(t *testing.T) {
	a, b := NewEndpoint(EndpointConfig{}), NewEndpoint(EndpointConfig{})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	for play := 0; play < 5; play++ {
		ta, tb := pair(t, a, b, fmt.Sprintf("play-%d", play))
		exchange(t, ta, tb, 50)
		ta.Close()
		tb.Close()
	}
	st := a.Stats()
	st.add(b.Stats())
	if st.Dials != 2 || st.DialErrors != 0 || st.Reconnects != 0 {
		t.Fatalf("5 plays: %d dials, %d dial errors, %d reconnects; want 2, 0, 0", st.Dials, st.DialErrors, st.Reconnects)
	}
	if st.Delivered != 500 || st.Duplicates != 0 {
		t.Fatalf("delivered %d with %d duplicates, want 500 and 0", st.Delivered, st.Duplicates)
	}
}

// TestReattachIsolatesOldStream: a HELLO on a live connection whose
// stream has just delivered frames, with their ACK not yet written and
// the idle-ACK timer pending, re-attaches it to a new stream. No ACK of
// the old stream follows the new WELCOME, and the new stream's frames,
// replays included, are delivered exactly once, in order, to the new
// stream only.
func TestReattachIsolatesOldStream(t *testing.T) {
	mn := newMemNet()
	ep := mn.endpoint(t, "b:1", EndpointConfig{})
	one, err := ep.Open(Config{Self: 1, N: 2, ClusterID: "one"})
	if err != nil {
		t.Fatal(err)
	}
	two, err := ep.Open(Config{Self: 1, N: 2, ClusterID: "two"})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := mn.dial("a:1", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fr := frameReader{r: bufio.NewReader(nc)}
	open := func(id string) {
		t.Helper()
		if err := writeHello(nc, hello{Version: ProtocolVersion, ClusterID: id, From: 0, To: 1}); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			kind, body, err := fr.next(maxHandshakeBytes)
			if err != nil {
				t.Fatalf("%s: awaiting WELCOME: %v", id, err)
			}
			if kind == kindWelcome {
				if n, err := parseU64(body); err != nil || n != 0 {
					t.Fatalf("%s: WELCOME cursor %d (%v), want 0", id, n, err)
				}
				return
			}
			if kind != kindAck {
				t.Fatalf("%s: frame kind %d before the WELCOME", id, kind)
			}
		}
	}
	send := func(from, to uint64) {
		t.Helper()
		var b []byte
		for seq := from; seq <= to; seq++ {
			b = appendData(b, seq, payload(0, int(seq-1)))
		}
		if _, err := nc.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	open("one")
	send(1, 10)
	expectInOrder(t, collect(t, one, 10, 5*time.Second), 1, 10)
	open("two") // within ackIdle of stream one's last frame
	_ = nc.SetReadDeadline(time.Now().Add(3 * ackIdle))
	if kind, body, err := fr.next(maxHandshakeBytes); err == nil {
		t.Fatalf("frame kind %d (% x) after stream two's WELCOME, before any of its DATA", kind, body)
	}

	// Stream two: 300 frames, then a replay of frames 200-300 as a
	// redialing sender would send them.
	send(1, 300)
	send(200, 300)
	expectInOrder(t, collect(t, two, 300, 10*time.Second), 1, 300)
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for cursor := uint64(0); cursor != 300; {
		kind, body, err := fr.next(maxHandshakeBytes)
		if err != nil {
			t.Fatalf("awaiting stream two's last ACK: %v", err)
		}
		n, err := parseU64(body)
		if kind != kindAck || err != nil || n < cursor || n > 300 {
			t.Fatalf("frame kind %d cursor %d (%v) after cursor %d", kind, n, err, cursor)
		}
		cursor = n
	}
	if st := two.Stats(); st.Delivered != 300 || st.Duplicates != 101 {
		t.Fatalf("stream two delivered %d with %d duplicates, want 300 and 101", st.Delivered, st.Duplicates)
	}
	select {
	case f := <-one.Inbox():
		t.Fatalf("stream one received a frame after the re-attach: %+v", f)
	default:
	}
}

// TestReusedConnectionAfterUnackedTail: a transport closes with frames
// delivered but not yet acknowledged; the next play between the same
// endpoints takes its connection and, while connections are severed
// mid-traffic, delivers every frame exactly once and in order.
func TestReusedConnectionAfterUnackedTail(t *testing.T) {
	a, b := NewEndpoint(EndpointConfig{}), NewEndpoint(EndpointConfig{})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	ta, tb := pair(t, a, b, "first")
	for m := 0; m < 10; m++ {
		ta.Send(1, payload(0, m))
	}
	expectInOrder(t, collect(t, tb, 10, 5*time.Second), 1, 10)
	ta.Close() // its 10 frames unacknowledged, tb's idle-ACK timer armed
	tb.Close()

	ta, tb = pair(t, a, b, "second")
	for m := 0; m < 300; m++ {
		ta.Send(1, payload(0, m))
	}
	receive(t, tb, 1, 150)
	if st := ta.Stats(); st.Dials != 0 {
		t.Fatalf("second play dialed %d times: the connection at rest was not reused", st.Dials)
	}
	a.DropConns()
	for m := 300; m < 600; m++ {
		ta.Send(1, payload(0, m))
	}
	receive(t, tb, 151, 450)
	if st := ta.Stats(); st.DialErrors != 0 || st.Reconnects == 0 {
		t.Fatalf("after the drop: %d dial errors, %d reconnects; want 0 and at least 1", st.DialErrors, st.Reconnects)
	}
}

// TestDialerDropsAckBeforeWelcome: an ACK read after the HELLO but
// before the WELCOME belongs to the connection's previous stream and
// trims nothing. The listener below takes five frames on a first
// connection and hangs up without acknowledging them; on the redial it
// sends a stale ACK ahead of its WELCOME, and the link must still replay
// all five.
func TestDialerDropsAckBeforeWelcome(t *testing.T) {
	mn := newMemNet()
	ln, err := mn.listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// serve answers one HELLO, stale ACK first if asked, and returns the
	// sequence numbers of the first five DATA frames.
	serve := func(nc net.Conn, stale bool) []uint64 {
		fr := frameReader{r: bufio.NewReader(nc)}
		if _, _, err := fr.next(maxHandshakeBytes); err != nil {
			return nil
		}
		var reply []byte
		if stale {
			reply = appendAck(reply, 1000)
		}
		reply = binary.BigEndian.AppendUint64(appendHeader(reply, kindWelcome, 8), 0)
		if _, err := nc.Write(reply); err != nil {
			return nil
		}
		var seqs []uint64
		for len(seqs) < 5 {
			_, body, err := fr.next(MaxFrameBytes)
			if err != nil {
				break
			}
			seq, _, _ := parseData(body)
			seqs = append(seqs, seq)
		}
		return seqs
	}
	replayed := make(chan []uint64, 1)
	go func() {
		first, err := ln.Accept()
		if err != nil {
			return
		}
		serve(first, false)
		first.Close()
		second, err := ln.Accept()
		if err != nil {
			return
		}
		defer second.Close()
		replayed <- serve(second, true)
		_, _ = second.Read(make([]byte, 1)) // until the dialer hangs up
	}()
	_, a := openOwn(t, mn, "a:1", Config{Self: 0, N: 2, ClusterID: "stale"})
	for m := 0; m < 5; m++ {
		a.Send(1, payload(0, m))
	}
	a.SetPeerAddr(1, ln.Addr().String())
	select {
	case seqs := <-replayed:
		if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(seqs, want) {
			t.Fatalf("redial replayed seqs %v, want %v", seqs, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the redial replayed fewer than 5 frames")
	}
	if st := a.Stats(); st.ResendBuffered != 5 || st.Acks != 0 {
		t.Fatalf("resend buffer %d, %d ACKs; want 5 and 0", st.ResendBuffered, st.Acks)
	}
}

// TestDeadRestingConnectionRedialsUncounted: once the listener's side
// of the connections at rest has closed, the next play still forms, and
// replacing a dead connection counts no dial error.
func TestDeadRestingConnectionRedialsUncounted(t *testing.T) {
	a, b := NewEndpoint(EndpointConfig{}), NewEndpoint(EndpointConfig{})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	for play, id := range []string{"first", "second", "third"} {
		ta, tb := pair(t, a, b, id)
		exchange(t, ta, tb, 20)
		ta.Close()
		tb.Close()
		if play < 2 && b.DropConns() == 0 { // the listener's ends, and b's own
			t.Fatal("no connections at rest to drop")
		}
	}
	st := a.Stats()
	st.add(b.Stats())
	if st.DialErrors != 0 || st.Delivered != 120 {
		t.Fatalf("%d dial errors, %d delivered; want 0 and 120", st.DialErrors, st.Delivered)
	}
}

// TestHungPooledConnectionCountsDialError: a pooled connection to a
// peer that is alive but has stopped reading fails its handshake by
// timing out, and that counts as a dial error within one handshake
// timeout, as it would on a fresh connection: a hung peer stays visible
// in DialErrors instead of sending the link through every pooled
// connection first.
func TestHungPooledConnectionCountsDialError(t *testing.T) {
	saved := handshakeTimeout
	handshakeTimeout = 200 * time.Millisecond
	t.Cleanup(func() { handshakeTimeout = saved })
	mn := newMemNet()
	ln, err := mn.listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The peer answers the first HELLO and reads one DATA frame, then
	// hangs: it keeps the connection open and reads nothing more.
	served := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		fr := frameReader{r: bufio.NewReader(nc)}
		if _, _, err := fr.next(maxHandshakeBytes); err == nil {
			_, _ = nc.Write(binary.BigEndian.AppendUint64(appendHeader(nil, kindWelcome, 8), 0))
			_, _, _ = fr.next(MaxFrameBytes)
		}
		served <- nc
	}()
	ep := mn.endpoint(t, "a:1", EndpointConfig{})
	first, err := ep.Open(Config{Self: 0, N: 2, ClusterID: "first"})
	if err != nil {
		t.Fatal(err)
	}
	first.SetPeerAddr(1, ln.Addr().String())
	first.Send(1, payload(0, 0))
	select {
	case nc := <-served:
		defer nc.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("the first play's frame never arrived")
	}
	first.Close() // its connection goes to the idle pool

	second, err := ep.Open(Config{Self: 0, N: 2, ClusterID: "second"})
	if err != nil {
		t.Fatal(err)
	}
	second.SetPeerAddr(1, ln.Addr().String())
	second.Send(1, payload(0, 0))
	wait := handshakeTimeout + 2*time.Second
	deadline := time.Now().Add(wait)
	mn.await(func() bool { return second.Stats().DialErrors != 0 || time.Now().After(deadline) })
	if st := second.Stats(); st.DialErrors == 0 {
		t.Fatalf("no dial error %v after taking a connection to a hung peer (%d dials)", wait, st.Dials)
	}
	if st := second.Stats(); st.Dials != 0 {
		t.Fatalf("the timed-out pooled connection was replaced by %d fresh dials before it counted", st.Dials)
	}
}

// TestUnknownClusterRejectedOnSharedEndpoint: a HELLO for a cluster the
// endpoint does not host is refused with a REJECT, and a live stream on
// the same endpoint carries on untouched.
func TestUnknownClusterRejectedOnSharedEndpoint(t *testing.T) {
	mn := newMemNet()
	a, b := mn.endpoint(t, "a:1", EndpointConfig{}), mn.endpoint(t, "b:1", EndpointConfig{})
	ta, tb := pair(t, a, b, "live")
	for m := 0; m < 100; m++ {
		ta.Send(1, payload(0, m))
	}
	receive(t, tb, 1, 100)

	nc, err := mn.dial("c:1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeHello(nc, hello{Version: ProtocolVersion, ClusterID: "ghost", From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readRaw(nc)
	if err != nil || kind != kindReject {
		t.Fatalf("ghost HELLO answered kind %d %q (%v), want a REJECT", kind, body, err)
	}
	var rej rejectError
	if !errors.As(errRejected(kind, body), &rej) || string(rej) != `no player 1 of cluster "ghost" here` {
		t.Fatalf("REJECT reason %q", body)
	}

	for m := 100; m < 200; m++ {
		ta.Send(1, payload(0, m))
	}
	receive(t, tb, 101, 100)
	if st := ta.Stats(); st.DialErrors != 0 || st.Reconnects != 0 || st.Dials != 1 {
		t.Fatalf("live stream: %d dial errors, %d reconnects, %d dials; want 0, 0, 1", st.DialErrors, st.Reconnects, st.Dials)
	}
	if r := b.Stats().Rejected; r != 1 {
		t.Fatalf("endpoint Rejected = %d, want 1", r)
	}
}

// TestLateHelloForClosedStreamWelcomed: a HELLO that arrives just after
// its stream's transport closed, from a peer still opening a stream of a
// play this endpoint has finished, is welcomed into a detached stream
// whose frames are dropped, not refused. A cluster the endpoint never
// hosted is still refused.
func TestLateHelloForClosedStreamWelcomed(t *testing.T) {
	mn := newMemNet()
	ep, done := openOwn(t, mn, "b:1", Config{Self: 1, N: 2, ClusterID: "done"})
	done.Close()
	nc, err := mn.dial("a:1", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	fr := frameReader{r: bufio.NewReader(nc)}
	if err := writeHello(nc, hello{Version: ProtocolVersion, ClusterID: "done", From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	if kind, body, err := fr.next(maxHandshakeBytes); err != nil || kind != kindWelcome {
		t.Fatalf("late HELLO answered kind %d %q (%v), want a WELCOME", kind, body, err)
	}
	frames := appendData(nil, 1, payload(0, 0))
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := writeHello(nc, hello{Version: ProtocolVersion, ClusterID: "never", From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	if kind, body, err := fr.next(maxHandshakeBytes); err != nil || kind != kindReject {
		t.Fatalf("HELLO for an unknown cluster answered kind %d %q (%v), want a REJECT", kind, body, err)
	}
	if st := ep.Stats(); st.Rejected != 1 || st.Delivered != 0 {
		t.Fatalf("Rejected %d, Delivered %d; want 1 and 0", st.Rejected, st.Delivered)
	}
}

// TestReservedKindSkipped: an older peer still writes the retired GOSSIP
// kind (6) onto its established streams. The receiver must skip those
// frames like any unknown kind and keep delivering the stream's DATA.
func TestReservedKindSkipped(t *testing.T) {
	mn := newMemNet()
	ep, tr := openOwn(t, mn, "b:1", Config{Self: 1, N: 2, ClusterID: "older-peer"})
	nc, err := mn.dial("a:1", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeHello(nc, hello{Version: ProtocolVersion, ClusterID: "older-peer", From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: bufio.NewReader(nc)}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if kind, _, err := fr.next(maxHandshakeBytes); err != nil || kind != kindWelcome {
		t.Fatalf("awaiting WELCOME: kind %d, %v", kind, err)
	}
	for i := 0; i < 5; i++ {
		if err := writeRaw(nc, kindReserved6, []byte("digest")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(appendData(nil, 1, []byte("data"))); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-tr.Inbox():
		if string(f.Payload) != "data" || f.Seq != 1 || f.From != 0 {
			t.Fatalf("frame %+v, want DATA seq 1 from 0", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DATA frame not delivered after the reserved-kind frames")
	}
	// FramesIn is counted before a frame is handled; Delivered only after
	// the inbox send, so it may still lag the frame received above.
	if st := tr.Stats(); st.FramesIn != 6 {
		t.Fatalf("%d frames in, want the 5 skipped and the DATA", st.FramesIn)
	}
}

// TestCoHostedStreamsUseNoSocket: transports on one endpoint, each
// addressing its peers at the endpoint itself, talk over in-memory pipes,
// in plaintext and under mutual TLS: the endpoint's network dial is never
// called. The receivers read nothing until every payload is stamped, so
// the pipes' writers block with frames in flight, and then every
// connection is dropped. The links redial over new pipes and replay, and
// every frame still arrives once and in order. Each link's writer takes
// its whole queue in one pass, as every payload is sent before the
// peers' addresses are known.
func TestCoHostedStreamsUseNoSocket(t *testing.T) {
	pool, issue := testCA(t)
	for _, c := range []struct {
		name string
		tls  *TLS
	}{{"plain", nil}, {"mtls", &TLS{cert: issue(), ca: pool}}} {
		t.Run(c.name, func(t *testing.T) {
			const n, msgs = 4, 200
			mn := newMemNet()
			ep := mn.endpoint(t, "127.0.0.1:7000", EndpointConfig{TLS: c.tls})
			ep.dial = func(addr string) (net.Conn, error) {
				t.Errorf("dialed %s over the network", addr)
				return nil, errors.New("no network here")
			}
			trs := make([]*Transport, n)
			for i := range trs {
				trs[i] = openOn(t, ep, Config{Self: i, N: n, ClusterID: "co-hosted"})
				for m := 0; m < msgs; m++ {
					for j := range trs {
						trs[i].Send(j, payload(i, m)) // to self: a no-op
					}
				}
			}
			for _, tr := range trs {
				for j := range trs {
					tr.SetPeerAddr(j, ep.Addr())
				}
			}
			if !mn.await(func() bool { return ep.Stats().QueueLen == 0 }) {
				t.Fatalf("%d payloads never left the pending queues", ep.Stats().QueueLen)
			}
			streams := n * (n - 1)
			if dropped := ep.DropConns(); dropped != 2*streams {
				t.Fatalf("dropped %d connections, want both halves of %d pipes", dropped, streams)
			}
			for i, tr := range trs {
				got := collect(t, tr, (n-1)*msgs, 10*time.Second)
				for s := range trs {
					if idxs := got[s]; s != i && (len(idxs) != msgs || idxs[0] != 0 || idxs[msgs-1] != msgs-1) {
						t.Fatalf("player %d got %d payloads from %d, want %d in order", i, len(idxs), s, msgs)
					}
				}
			}
			// A frame is counted just after its inbox send.
			mn.await(func() bool { return ep.Stats().Delivered == int64(streams*msgs) })
			st := ep.Stats()
			if st.Delivered != int64(streams*msgs) || st.Reconnects == 0 || st.Resent == 0 || st.DialErrors != 0 {
				t.Fatalf("delivered %d of %d, %d reconnects, %d resent, %d dial errors; want every frame, some reconnects and resends, no error",
					st.Delivered, streams*msgs, st.Reconnects, st.Resent, st.DialErrors)
			}
			if st.Dials < int64(2*streams) {
				t.Fatalf("%d pipes opened for %d streams dropped once", st.Dials, streams)
			}
		})
	}
}

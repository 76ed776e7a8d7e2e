package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"
)

// writeData writes one sequence-numbered payload as a single frame built
// in buf and returns buf for the next frame: the one-frame-per-write
// encoding that a link's coalesced writes must reproduce byte for byte.
func writeData(w io.Writer, buf []byte, seq uint64, payload []byte) ([]byte, error) {
	buf = appendData(buf[:0], seq, payload)
	_, err := w.Write(buf)
	return buf, err
}

// readRaw reads one steady-state frame (at most MaxFrameBytes) from r.
func readRaw(r io.Reader) (byte, []byte, error) {
	return (&frameReader{r: r}).next(MaxFrameBytes)
}

// TestDataAndAckGoldenBytes pins the DATA and ACK frames byte for byte:
// building them in one buffer (and reusing it) must not change what goes
// on the wire.
func TestDataAndAckGoldenBytes(t *testing.T) {
	var w bytes.Buffer
	var scratch []byte
	var err error
	if scratch, err = writeData(&w, scratch, 0x0102030405060708, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, err = writeData(&w, scratch, 9, nil); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 11, kindData, 1, 2, 3, 4, 5, 6, 7, 8, 'h', 'i',
		0, 0, 0, 9, kindData, 0, 0, 0, 0, 0, 0, 0, 9,
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("DATA frames\n got % x\nwant % x", w.Bytes(), want)
	}
	kind, body, err := readRaw(&w)
	if err != nil || kind != kindData {
		t.Fatalf("read back kind %d: %v", kind, err)
	}
	if seq, payload, err := parseData(body); err != nil || seq != 0x0102030405060708 || string(payload) != "hi" {
		t.Fatalf("parsed seq %x payload %q: %v", seq, payload, err)
	}

	ack := appendAck(nil, 258)
	if want := []byte{0, 0, 0, 9, kindAck, 0, 0, 0, 0, 0, 0, 1, 2}; !bytes.Equal(ack, want) {
		t.Fatalf("ACK frame\n got % x\nwant % x", ack, want)
	}
}

// TestHandshakeRejectsOldVersion: a peer of the previous protocol
// generation is refused at HELLO with a reason naming both versions,
// instead of completing the handshake and sending frames nobody decodes.
func TestHandshakeRejectsOldVersion(t *testing.T) {
	mn := newMemNet()
	ep, tr := openOwn(t, mn, "b:1", Config{Self: 1, N: 2, ClusterID: "v"})
	conn, err := mn.dial("a:1", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeHello(conn, hello{Version: 3, ClusterID: "v", From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readRaw(conn)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindReject || string(body) != "version 3, want 4" {
		t.Fatalf("got kind %d %q, want a REJECT naming versions 3 and 4", kind, body)
	}
	if r := ep.Stats().Rejected; r != 1 {
		t.Errorf("Rejected = %d, want 1", r)
	}
}

// totalAlloc reads the process-wide cumulative heap allocation.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestHandshakeRejectsGiantFrame: four bytes from an unauthenticated
// client announcing a 64 MiB HELLO are refused before anything is
// allocated for them, and so is a listener answering a HELLO with a
// 64 MiB WELCOME.
func TestHandshakeRejectsGiantFrame(t *testing.T) {
	giant := func(kind byte) []byte { return appendHeader(nil, kind, MaxFrameBytes-1) }

	mn := newMemNet()
	ep, tr := openOwn(t, mn, "b:1", Config{Self: 1, N: 2, ClusterID: "giant"})
	before := totalAlloc()
	conn, err := mn.dial("c:1", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(giant(kindHello)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("listener answered a 64 MiB HELLO instead of hanging up")
	}
	if alloc := totalAlloc() - before; alloc > 1<<20 {
		t.Fatalf("refusing a 64 MiB HELLO allocated %d bytes", alloc)
	}
	if r := ep.Stats().Rejected; r != 1 {
		t.Fatalf("Rejected = %d, want 1", r)
	}

	// The dialer's side: a "listener" that reads the HELLO and answers
	// with a 64 MiB WELCOME header, on every connection the link dials.
	ln, err := mn.listen("d:1")
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan struct{}, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, _, err := readRaw(c); err != nil {
					return
				}
				if _, err := c.Write(giant(kindWelcome)); err != nil {
					return
				}
				_, _ = c.Read(make([]byte, 1)) // until the dialer hangs up
				select {
				case answered <- struct{}{}:
				default:
				}
			}()
		}
	}()
	_, a := openOwn(t, mn, "a:1", Config{Self: 0, N: 2, ClusterID: "giant"})
	before = totalAlloc()
	a.SetPeerAddr(1, ln.Addr().String())
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("the dialer never hung up on a 64 MiB WELCOME")
	}
	alloc := totalAlloc() - before
	ln.Close()
	a.Close()
	if alloc > 1<<20 {
		t.Fatalf("refusing a 64 MiB WELCOME allocated %d bytes", alloc)
	}
	if a.Stats().DialErrors == 0 {
		t.Fatal("dialer recorded no handshake failure")
	}
}

// parsedFrame is one frame decodeStream read: its bytes in the input,
// its kind and its body.
type parsedFrame struct {
	raw  []byte
	kind byte
	body []byte
}

// decodeStream reads b the way a listener reads a connection, through
// one buffered frame reader: the first frame under the handshake bound,
// the rest (DATA, and a HELLO that re-attaches the connection) as
// steady-state frames, until the first read error.
func decodeStream(b []byte) []parsedFrame {
	fr := frameReader{r: bufio.NewReader(bytes.NewReader(b))}
	var out []parsedFrame
	for off, limit := 0, maxHandshakeBytes; ; limit = MaxFrameBytes {
		kind, body, err := fr.next(limit)
		if err != nil {
			return out
		}
		n := 5 + len(body)
		out = append(out, parsedFrame{raw: b[off : off+n], kind: kind, body: body})
		off += n
	}
}

// decodeAllocPerRun decodes b, and parses every frame with each parser,
// runs times and reports the mean heap bytes one pass allocated. The
// counter is process-wide; averaging over runs drowns out what other
// goroutines allocate meanwhile.
func decodeAllocPerRun(b []byte, runs int) uint64 {
	before := totalAlloc()
	for i := 0; i < runs; i++ {
		for _, f := range decodeStream(b) {
			_, _ = parseHello(f.body)
			_, _, _ = parseData(f.body)
			_, _ = parseU64(f.body)
		}
	}
	return (totalAlloc() - before) / uint64(runs)
}

// FuzzReadFrame drives the transport's peer-facing decoders — the frame
// reader under both bounds, parseHello, parseData and parseU64 — over
// arbitrary bytes. They error or succeed but never panic; allocation is
// bounded by the input (plus one eagerly read frame and the reader's
// buffer), never by what a length prefix claims; and whatever parses
// encodes back to the same frame (a HELLO, whose parser tolerates
// trailing bytes, to the same fields).
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if alloc := decodeAllocPerRun(b, 10); alloc > uint64(8*len(b)+eagerFrameBytes+16<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), alloc)
		}
		for _, fr := range decodeStream(b) {
			switch fr.kind {
			case kindHello:
				h, err := parseHello(fr.body)
				if err != nil {
					continue
				}
				var w bytes.Buffer
				if err := writeHello(&w, h); err != nil {
					t.Fatalf("parsed hello %+v does not re-encode: %v", h, err)
				}
				_, body, err := readRaw(&w)
				if err != nil {
					t.Fatal(err)
				}
				if again, err := parseHello(body); err != nil || again != h {
					t.Fatalf("hello %+v re-parsed as %+v (%v)", h, again, err)
				}
			case kindData:
				if seq, payload, err := parseData(fr.body); err == nil && !bytes.Equal(appendData(nil, seq, payload), fr.raw) {
					t.Fatalf("DATA frame %x re-encodes differently", fr.raw)
				}
			case kindWelcome, kindAck:
				if n, err := parseU64(fr.body); err == nil && !bytes.Equal(binary.BigEndian.AppendUint64(appendHeader(nil, fr.kind, 8), n), fr.raw) {
					t.Fatalf("frame %x re-encodes differently", fr.raw)
				}
			}
		}
	})
}

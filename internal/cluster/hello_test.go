package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestHelloRoundTrip: writeHello's frame parses back to the same HELLO,
// and its body holds the fixed fields and nothing after them.
func TestHelloRoundTrip(t *testing.T) {
	in := hello{Version: ProtocolVersion, ClusterID: "c-000042", From: 1, To: 3}
	var buf bytes.Buffer
	if err := writeHello(&buf, in); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readRaw(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindHello {
		t.Fatalf("frame kind %d, want %d", kind, kindHello)
	}
	if want := 2 + 4 + len(in.ClusterID) + 4 + 4; len(body) != want {
		t.Fatalf("hello body is %d bytes, want %d (fixed fields only)", len(body), want)
	}
	h, err := parseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if h != in {
		t.Fatalf("round trip %+v, want %+v", h, in)
	}
}

// oldHelloBody builds a HELLO body as earlier daemons wrote it: the fixed
// fields, then a trace-id tail of a 2-byte length and the id. claim
// overrides the length the tail declares (a truncated tail).
func oldHelloBody(h hello, traceID string, claim int) []byte {
	id := []byte(h.ClusterID)
	body := binary.BigEndian.AppendUint16(nil, h.Version)
	body = binary.BigEndian.AppendUint32(body, uint32(len(id)))
	body = append(body, id...)
	body = binary.BigEndian.AppendUint32(body, uint32(int32(h.From)))
	body = binary.BigEndian.AppendUint32(body, uint32(int32(h.To)))
	body = binary.BigEndian.AppendUint16(body, uint16(claim))
	return append(body, traceID...)
}

// parseOldHello parses an old-tail HELLO body and checks that it yields
// exactly the fixed fields it was built from.
func parseOldHello(t *testing.T, want hello, traceID string, claim int) {
	t.Helper()
	h, err := parseHello(oldHelloBody(want, traceID, claim))
	if err != nil {
		t.Fatal(err)
	}
	if h != want {
		t.Fatalf("old-tail hello parsed as %+v, want %+v", h, want)
	}
}

// TestHelloTraceIDRoundTrip: the HELLO no longer carries a trace id, but
// one carrying the tail that earlier daemons appended still parses to the
// same fixed fields, and a live endpoint answers it with a WELCOME, so a
// daemon of the earlier generation still handshakes.
func TestHelloTraceIDRoundTrip(t *testing.T) {
	want := hello{Version: ProtocolVersion, ClusterID: "c-legacy", From: 0, To: 1}
	parseOldHello(t, want, "9f86d081deadbeef", 16)

	mn := newMemNet()
	ep, tr := openOwn(t, mn, "b:1", Config{Self: 1, N: 2, ClusterID: want.ClusterID})
	defer tr.Close()
	nc, err := mn.dial("a:1", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeRaw(nc, kindHello, oldHelloBody(want, "9f86d081deadbeef", 16)); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: bufio.NewReader(nc)}
	if kind, body, err := fr.next(maxHandshakeBytes); err != nil || kind != kindWelcome {
		t.Fatalf("HELLO with the old tail answered kind %d %q (%v), want a WELCOME", kind, body, err)
	}
}

// TestHelloEmptyTraceID: an old tail with a zero-length id (tracing was
// off on the earlier coordinator) parses to the same fixed fields.
func TestHelloEmptyTraceID(t *testing.T) {
	parseOldHello(t, hello{Version: ProtocolVersion, ClusterID: "c-1", From: 0, To: 2}, "", 0)
}

// TestHelloWithoutTraceTailParses: a HELLO body that ends right after the
// To field, built by hand rather than by writeHello, parses.
func TestHelloWithoutTraceTailParses(t *testing.T) {
	id := []byte("c-legacy")
	body := make([]byte, 2+4+len(id)+4+4)
	binary.BigEndian.PutUint16(body[0:2], ProtocolVersion)
	binary.BigEndian.PutUint32(body[2:6], uint32(len(id)))
	copy(body[6:], id)
	off := 6 + len(id)
	binary.BigEndian.PutUint32(body[off:off+4], uint32(2))
	binary.BigEndian.PutUint32(body[off+4:off+8], uint32(3))

	h, err := parseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	want := hello{Version: ProtocolVersion, ClusterID: "c-legacy", From: 2, To: 3}
	if h != want {
		t.Fatalf("tail-less hello parsed as %+v, want %+v", h, want)
	}
}

// TestHelloTruncatedTraceTailIgnored: an old tail whose declared length
// exceeds the remaining bytes is ignored rather than rejected — the
// fixed fields still carry the handshake.
func TestHelloTruncatedTraceTailIgnored(t *testing.T) {
	parseOldHello(t, hello{Version: ProtocolVersion, ClusterID: "c-1", From: 0, To: 1}, "9", 500)
}

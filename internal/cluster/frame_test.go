package cluster

import (
	"bytes"
	"net"
	"testing"
	"time"
)

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
	tr, err := New(Config{Self: 1, N: 2, ClusterID: "v"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, err := net.DialTimeout("tcp", tr.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeHello(conn, hello{Version: 1, ClusterID: "v", From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readRaw(conn)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindReject || string(body) != "version 1, want 2" {
		t.Fatalf("got kind %d %q, want a REJECT naming versions 1 and 2", kind, body)
	}
	if tr.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", tr.Stats().Rejected)
	}
}

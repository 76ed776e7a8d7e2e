package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ProtocolVersion is the handshake version this package speaks. A peer
// announcing a different version is rejected during HELLO: transport
// framing and the payload codec riding in DATA frames are a hard
// compatibility boundary between daemon generations. Version 2 carries
// the wire package's binary codec; version 3 keeps a connection open
// across streams, so a HELLO may follow DATA frames on one connection and
// re-attach it to a new stream. A version-2 peer would take that HELLO for
// the first frame of a fresh connection, so the two refuse each other.
const ProtocolVersion uint16 = 3

// MaxFrameBytes bounds one transport frame (kind byte + body): far above
// any protocol payload, and small enough that a corrupt length prefix
// cannot make a reader allocate without bound.
const MaxFrameBytes = 64 << 20

// The transport frame kinds. Every TCP segment stream this package opens
// carries length-prefixed frames of exactly these kinds and nothing else.
const (
	kindHello   byte = 1 // dialer -> listener: open a (from -> to) stream
	kindWelcome byte = 2 // listener -> dialer: accept + highest delivered seq
	kindReject  byte = 3 // listener -> dialer: refuse, with a reason
	kindData    byte = 4 // dialer -> listener: one sequence-numbered payload
	kindAck     byte = 5 // listener -> dialer: cumulative delivery ack
	// kindReserved6 is reserved: it carried the retired fleet gossip
	// plane's best-effort digests. A receiver skips it like any unknown
	// framed kind, so a peer that still sends it keeps its stream; never
	// reuse the number.
	kindReserved6 byte = 6
)

// Frame is one delivered transport unit: an opaque payload on the ordered
// (From -> To) stream. Seq is 1-based and strictly contiguous per stream —
// the transport's exactly-once guarantee to its consumer.
type Frame struct {
	From    int
	To      int
	Seq     uint64
	Payload []byte
}

// hello is the first frame of every connection: it names the protocol
// version, the cluster session the dialer believes it is part of, and the
// directed stream (from -> to) this connection will carry. TraceID is an
// optional observability tail (the play's trace id) appended after the
// fixed fields; version-1 parsers that predate it already tolerated
// trailing bytes, so carrying it needs no protocol-version bump.
type hello struct {
	Version   uint16
	ClusterID string
	From      int
	To        int
	TraceID   string
}

// appendHeader appends a frame's length prefix (kind byte plus a body of
// bodyLen bytes) and kind byte.
func appendHeader(b []byte, kind byte, bodyLen int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(bodyLen+1))
	return append(b, kind)
}

// writeRaw emits one length-prefixed frame: kind byte plus body.
func writeRaw(w io.Writer, kind byte, body []byte) error {
	if len(body)+1 > MaxFrameBytes {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(body)+1)
	}
	frame := appendHeader(make([]byte, 0, 5+len(body)), kind, len(body))
	_, err := w.Write(append(frame, body...))
	return err
}

// maxHandshakeBytes bounds the frames read before a peer is admitted
// (HELLO) and by a dialer awaiting admission (WELCOME or REJECT). A HELLO
// frame is 17 bytes plus its cluster and trace ids, a WELCOME 9, a REJECT
// one line of reason. So 4 KiB is ample, and an unauthenticated client
// cannot make the listener allocate more.
const maxHandshakeBytes = 4 << 10

// eagerFrameBytes is the largest frame body a frameReader allocates in
// one piece from the length prefix alone. Anything larger is read into a
// buffer that grows with the bytes actually received, so a length prefix
// claiming megabytes costs memory only once those bytes arrive.
const eagerFrameBytes = 64 << 10

// A frameReader carves the bodies of small frames out of a slab of
// slabBytes and allocates the next slab only when the current one is
// full, so a burst of frames costs one allocation, not one per frame. A
// body is at most slabFrameBytes long to share a slab; a larger one gets
// an allocation of its own, which bounds the slab space a frame that does
// not fit can leave unused. Slabs are never reused: a body stays valid,
// and unaliased by later frames, for as long as a caller keeps it.
const (
	slabBytes      = 8 << 10
	slabFrameBytes = 1 << 10
)

// frameReader reads length-prefixed frames from one connection's
// buffered reader.
type frameReader struct {
	r    io.Reader
	slab []byte
}

// next reads one frame of at most limit bytes (kind byte plus body),
// returning its kind and body. Callers may keep the body.
func (fr *frameReader) next(limit int) (byte, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(fr.r, lenb[:]); err != nil {
		return 0, nil, err
	}
	n := int64(binary.BigEndian.Uint32(lenb[:]))
	if n < 1 || n > int64(limit) {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes out of range", n)
	}
	var buf []byte
	switch {
	case n <= slabFrameBytes:
		if int64(cap(fr.slab)-len(fr.slab)) < n {
			fr.slab = make([]byte, 0, slabBytes)
		}
		off := len(fr.slab)
		fr.slab = fr.slab[:off+int(n)]
		buf = fr.slab[off : off+int(n) : off+int(n)]
	case n <= eagerFrameBytes:
		buf = make([]byte, n)
	default:
		var err error
		if buf, err = io.ReadAll(io.LimitReader(fr.r, n)); err != nil {
			return 0, nil, err
		}
		if int64(len(buf)) < n {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return buf[0], buf[1:], nil
	}
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// writeHello frames the handshake's opening.
func writeHello(w io.Writer, h hello) error {
	id := []byte(h.ClusterID)
	tid := []byte(h.TraceID)
	body := make([]byte, 2+4+len(id)+4+4+2+len(tid))
	binary.BigEndian.PutUint16(body[0:2], h.Version)
	binary.BigEndian.PutUint32(body[2:6], uint32(len(id)))
	copy(body[6:], id)
	off := 6 + len(id)
	binary.BigEndian.PutUint32(body[off:off+4], uint32(int32(h.From)))
	binary.BigEndian.PutUint32(body[off+4:off+8], uint32(int32(h.To)))
	binary.BigEndian.PutUint16(body[off+8:off+10], uint16(len(tid)))
	copy(body[off+10:], tid)
	return writeRaw(w, kindHello, body)
}

// parseHello decodes a HELLO body. The trace-id tail is optional: frames
// from peers predating it simply end after the To field.
func parseHello(body []byte) (hello, error) {
	if len(body) < 2+4 {
		return hello{}, fmt.Errorf("cluster: short hello (%d bytes)", len(body))
	}
	h := hello{Version: binary.BigEndian.Uint16(body[0:2])}
	idLen := int(binary.BigEndian.Uint32(body[2:6]))
	if idLen < 0 || len(body) < 6+idLen+8 {
		return hello{}, fmt.Errorf("cluster: malformed hello (id length %d in %d bytes)", idLen, len(body))
	}
	h.ClusterID = string(body[6 : 6+idLen])
	off := 6 + idLen
	h.From = int(int32(binary.BigEndian.Uint32(body[off : off+4])))
	h.To = int(int32(binary.BigEndian.Uint32(body[off+4 : off+8])))
	if rest := body[off+8:]; len(rest) >= 2 {
		if n := int(binary.BigEndian.Uint16(rest[0:2])); len(rest) >= 2+n {
			h.TraceID = string(rest[2 : 2+n])
		}
	}
	return h, nil
}

// writeWelcome accepts a handshake, telling the dialer the highest
// contiguous sequence number the listener has already delivered on this
// stream — the resend cursor.
func writeWelcome(w io.Writer, delivered uint64) error {
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], delivered)
	return writeRaw(w, kindWelcome, body[:])
}

// writeReject refuses a handshake with a human-readable reason.
func writeReject(w io.Writer, reason string) error {
	return writeRaw(w, kindReject, []byte(reason))
}

// dataOverhead is a DATA frame's size beyond its payload: length prefix,
// kind byte and sequence number.
const dataOverhead = 4 + 1 + 8

// appendData appends one DATA frame: header, 8-byte sequence number,
// payload. Frames appended back to back are exactly the bytes of the same
// frames written one by one, which is what lets a link coalesce a burst
// into one write.
func appendData(b []byte, seq uint64, payload []byte) []byte {
	b = binary.BigEndian.AppendUint64(appendHeader(b, kindData, 8+len(payload)), seq)
	return append(b, payload...)
}

// parseData splits a DATA body into its sequence number and payload.
func parseData(body []byte) (uint64, []byte, error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("cluster: short data frame (%d bytes)", len(body))
	}
	return binary.BigEndian.Uint64(body[:8]), body[8:], nil
}

// appendAck appends a cumulative ack: every seq <= n has been delivered.
func appendAck(b []byte, n uint64) []byte {
	return binary.BigEndian.AppendUint64(appendHeader(b, kindAck, 8), n)
}

// parseU64 decodes the 8-byte body shared by WELCOME and ACK.
func parseU64(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("cluster: want 8-byte body, got %d", len(body))
	}
	return binary.BigEndian.Uint64(body), nil
}

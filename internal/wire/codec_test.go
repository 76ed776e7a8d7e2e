package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"asyncmediator/internal/avss"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/proto"
)

// samplePayloads returns one non-zero instance of every payload type the
// codec knows. TestCodecCoversEveryTag holds its length to the number of
// unreserved tags, so a message type cannot ship without a sample here.
func samplePayloads() []any {
	return []any{
		&proto.Envelope{Instance: "ct/mpc/ba-3", Body: ba.MsgEst{Round: 1, V: 1}},
		ba.MsgEst{Round: 2, V: 1},
		ba.MsgAux{Round: 3, V: 0},
		ba.MsgDone{V: 1},
		avss.MsgRow{Coeffs: []field.Element{field.FromInt64(7), field.FromInt64(11)}},
		avss.MsgPoint{V: []field.Element{field.FromInt64(13), field.FromInt64(14)}},
		avss.MsgReady{},
		avss.MsgShare{V: field.FromInt64(17)},
		mediator.MsgInput{Round: 1, X: field.FromInt64(19)},
		mediator.MsgRound{R: 4},
		mediator.MsgStop{Action: field.FromInt64(1)},
		mediator.MsgHint{V: field.FromInt64(23)},
		field.FromInt64(29),
		game.Action(2),
		"hello",
	}
}

// edgePayloads are the boundary values of each field kind: empty and nil
// slices and strings, negative and extreme ints, the largest element.
func edgePayloads() []any {
	return []any{
		&proto.Envelope{Body: avss.MsgReady{}},
		strings.Repeat("\xab", 300),
		ba.MsgEst{Round: math.MaxInt, V: math.MinInt},
		ba.MsgAux{Round: -1, V: -64},
		avss.MsgRow{},
		avss.MsgRow{Coeffs: []field.Element{}},
		avss.MsgPoint{},
		avss.MsgPoint{V: []field.Element{}},
		avss.MsgPoint{V: []field.Element{field.Element(field.P - 1)}},
		mediator.MsgInput{Round: -7},
		game.NoMove,
		"",
	}
}

// roundTripCases is every sample and edge payload bare, and every one
// that may be an envelope body also wrapped in an envelope.
func roundTripCases() []any {
	var out []any
	for _, p := range append(samplePayloads(), edgePayloads()...) {
		out = append(out, p)
		if _, isEnv := p.(*proto.Envelope); !isEnv {
			out = append(out, &proto.Envelope{Instance: "mpc/mul-2/avss-1", Body: p})
		}
	}
	return out
}

// emptyToNil maps empty slices to nil, the one difference a round trip
// may introduce: the format has a length, not a nil bit.
func emptyToNil(v any) any {
	switch m := v.(type) {
	case *proto.Envelope:
		return &proto.Envelope{Instance: m.Instance, Body: emptyToNil(m.Body)}
	case avss.MsgRow:
		if len(m.Coeffs) == 0 {
			m.Coeffs = nil
		}
		return m
	case avss.MsgPoint:
		if len(m.V) == 0 {
			m.V = nil
		}
		return m
	}
	return v
}

// TestCodecRoundTripAllPayloadTypes: every payload type survives the
// codec structurally, and its encoding is canonical — decoding and
// re-encoding gives back the same bytes.
func TestCodecRoundTripAllPayloadTypes(t *testing.T) {
	for _, p := range roundTripCases() {
		b, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("encode %#v: %v", p, err)
		}
		got, err := DecodePayload(b)
		if err != nil {
			t.Fatalf("decode %#v: %v", p, err)
		}
		if !reflect.DeepEqual(got, emptyToNil(p)) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, p)
		}
		again, err := EncodePayload(got)
		if err != nil || !bytes.Equal(again, b) {
			t.Errorf("%#v: re-encoding gave %x (%v), want %x", p, again, err, b)
		}
	}
}

// TestCodecCoversEveryTag is the completeness check: one sample per
// unreserved tag, every sample on a distinct tag and none on a reserved
// one, so a new message type cannot ship unencoded.
func TestCodecCoversEveryTag(t *testing.T) {
	reserved := []byte{2, 3, 4}
	samples := samplePayloads()
	if len(samples) != numTags-len(reserved) {
		t.Fatalf("%d sample payloads for %d unreserved tags: add a sample (and a tag) for every message type", len(samples), numTags-len(reserved))
	}
	seen := map[byte]any{}
	for _, p := range samples {
		b, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		if prev, dup := seen[b[0]]; dup {
			t.Fatalf("%T and %T share tag %d", prev, p, b[0])
		}
		if slices.Contains(reserved, b[0]) {
			t.Fatalf("%T encodes with reserved tag %d", p, b[0])
		}
		seen[b[0]] = p
	}
}

// TestPayloadGoldenBytes pins the encoding of one payload per tag: the
// tags and field layouts are the wire format that daemons of one
// ProtocolVersion share, so a change to any of these bytes is a protocol
// change, not a refactor. Each case must also decode back to its value.
func TestPayloadGoldenBytes(t *testing.T) {
	cases := []struct {
		v   any
		hex string
	}{
		{&proto.Envelope{Instance: "ct/mpc/ba-3", Body: ba.MsgAux{Round: 2, V: 1}}, "010b63742f6d70632f62612d33060402"},
		{ba.MsgEst{Round: 2, V: 1}, "050402"},
		{ba.MsgAux{Round: 3, V: 0}, "060600"},
		{ba.MsgDone{V: 1}, "0702"},
		{avss.MsgRow{Coeffs: []field.Element{field.FromInt64(7), field.FromInt64(11)}}, "080207000000000000000b00000000000000"},
		{avss.MsgPoint{V: []field.Element{field.FromInt64(13), field.FromInt64(17)}}, "09020d000000000000001100000000000000"},
		{avss.MsgReady{}, "0a"},
		{avss.MsgShare{V: field.Element(field.P - 1)}, "0bfeffff7f00000000"},
		{mediator.MsgInput{Round: 1, X: field.FromInt64(19)}, "0c021300000000000000"},
		{mediator.MsgRound{R: 4}, "0d08"},
		{mediator.MsgStop{Action: field.FromInt64(1)}, "0e0100000000000000"},
		{mediator.MsgHint{V: field.FromInt64(23)}, "0f1700000000000000"},
		{field.FromInt64(29), "101d00000000000000"},
		{game.Action(-1), "1101"},
		{"hello", "120568656c6c6f"},
	}
	for _, c := range cases {
		b, err := EncodePayload(c.v)
		if err != nil {
			t.Fatalf("encode %#v: %v", c.v, err)
		}
		if got := hex.EncodeToString(b); got != c.hex {
			t.Errorf("%T encodes to %s, want %s", c.v, got, c.hex)
		}
		want, _ := hex.DecodeString(c.hex)
		if v, err := DecodePayload(want); err != nil || !reflect.DeepEqual(v, c.v) {
			t.Errorf("%s decodes to %#v (%v), want %#v", c.hex, v, err, c.v)
		}
	}
}

// TestEncodeRejectsUnsupported: anything outside the codec's types (an
// Envelope value among them), and the envelope shapes the format
// excludes, are errors.
func TestEncodeRejectsUnsupported(t *testing.T) {
	for _, v := range []any{
		struct{}{},
		nil,
		42,
		&ba.MsgEst{},
		proto.Envelope{Instance: "x", Body: "y"},
		(*proto.Envelope)(nil),
		&proto.Envelope{Instance: "x"},
		&proto.Envelope{Instance: "x", Body: &proto.Envelope{Body: "y"}},
		avss.MsgRow{Coeffs: []field.Element{field.Element(field.P)}},
		avss.MsgPoint{V: []field.Element{1, field.Element(field.P)}},
	} {
		if b, err := EncodePayload(v); err == nil {
			t.Errorf("EncodePayload(%#v) = %x, want an error", v, b)
		}
	}
}

// TestDecodeRejectsMalformed: each way an input can fail to be exactly one
// canonical encoding is an error (and never a panic).
func TestDecodeRejectsMalformed(t *testing.T) {
	env, _ := EncodePayload(&proto.Envelope{Instance: "i", Body: "s"})
	cases := map[string][]byte{
		"empty":            {},
		"tag zero":         {0},
		"unknown tag":      {numTags + 1},
		"trailing bytes":   {tagString, 1, 'a', 0},
		"non-minimal uint": {tagString, 0x81, 0x00, 'a'},
		"non-minimal int":  {tagBADone, 0x80, 0x00},
		"overlong varint":  append([]byte{tagBADone}, bytes.Repeat([]byte{0xFF}, 11)...),
		"nested envelope":  append([]byte{tagEnvelope, 1, 'o'}, env...),
		"unreduced":        {tagElement, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0},
		"row over length":  {tagAVSSRow, 2, 1, 0, 0, 0, 0, 0, 0, 0},
		// A point vector whose length claims more elements than follow,
		// and the pre-vector layout of a point: one bare element.
		"point over length":  {tagAVSSPoint, 2, 1, 0, 0, 0, 0, 0, 0, 0},
		"point bare element": {tagAVSSPoint, 13, 0, 0, 0, 0, 0, 0, 0},
		// The reserved tags, as a peer that still sent reliable-broadcast
		// messages would frame them: a tag and a length-prefixed value.
		"reserved tag 2": {2, 3, 1, 2, 3},
		"reserved tag 3": {3, 1, 4},
		"reserved tag 4": {4, 0},
	}
	for name, b := range cases {
		if v, err := DecodePayload(b); err == nil {
			t.Errorf("%s: decoded %#v, want an error", name, v)
		}
	}
	// Every proper prefix of every valid encoding is truncated.
	for _, p := range roundTripCases() {
		b, err := EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(b); i++ {
			if v, err := DecodePayload(b[:i]); err == nil {
				t.Errorf("%d-byte prefix of %x decoded as %#v", i, b, v)
			}
		}
	}
}

// TestSendDropsUnencodable: a payload for a peer that the codec refuses
// is dropped by Node.send — not handed to the transport, not counted, no
// panic.
func TestSendDropsUnencodable(t *testing.T) {
	node, err := NewNode(NodeConfig{Self: 0, N: 2, Endpoint: endpoints(t, "")[0], Proc: proto.NewHost()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	node.send(1, struct{ unexported int }{1})
	if st := node.Stats(); st.Sent != 0 || st.Transport.Sent != 0 {
		t.Fatalf("unencodable payload reached the transport: %+v", st)
	}
	node.send(1, "ok")
	if st := node.Stats(); st.Sent != 1 || st.Transport.Sent != 1 {
		t.Fatalf("encodable payload not sent: %+v", st)
	}
}

// FuzzDecodePayload: every input either errors or decodes to a value that
// re-encodes to exactly the same bytes; it never panics, and decoding
// allocates at most a small multiple of the input's length. The seed
// corpus (testdata/fuzz/FuzzDecodePayload) holds one encoding per payload
// type.
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if alloc := decodeAllocPerRun(b, 10); alloc > uint64(8*len(b)+4096) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), alloc)
		}
		v, err := DecodePayload(b)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "wire: decode: ") {
				t.Fatalf("unexpected error shape: %v", err)
			}
			return
		}
		again, err := EncodePayload(v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("not canonical: %x decoded to %#v, which encodes to %x", b, v, again)
		}
	})
}

// decodeAllocPerRun decodes b runs times and reports the mean heap bytes
// one decode allocated. The counter is process-wide; averaging over runs
// drowns out what other goroutines allocate meanwhile.
func decodeAllocPerRun(b []byte, runs int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = DecodePayload(b)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

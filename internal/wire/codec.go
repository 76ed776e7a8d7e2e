package wire

import (
	"encoding/binary"
	"fmt"

	"asyncmediator/internal/avss"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/proto"
)

// The codec: every payload that crosses a process boundary is one tag
// byte naming its concrete type, followed by that type's fields in
// declaration order. Lengths and counts are uvarints, int fields zig-zag
// varints, field elements 8 bytes little-endian. A *proto.Envelope is its
// instance string followed by exactly one nested, non-envelope payload.
// The format carries only the payload: framing and the sender's identity
// belong to the cluster transport.
//
// Decoding is strict and encoding canonical: every varint is minimal,
// every element is reduced, every length fits in the bytes that remain,
// and nothing may trail the payload, so a value that decodes re-encodes to
// exactly the bytes it came from. The tags are the wire format: add new
// ones at the end and never renumber. Tags 2-4 are reserved: they named
// the reliable-broadcast messages, which no protocol sends any more, and
// decode as unknown tags. Never reuse them.
const (
	tagEnvelope  byte = iota + 1 // *proto.Envelope
	_                            // 2: reserved
	_                            // 3: reserved
	_                            // 4: reserved
	tagBAEst                     // ba.MsgEst
	tagBAAux                     // ba.MsgAux
	tagBADone                    // ba.MsgDone
	tagAVSSRow                   // avss.MsgRow
	tagAVSSPoint                 // avss.MsgPoint
	tagAVSSReady                 // avss.MsgReady
	tagAVSSShare                 // avss.MsgShare
	tagMedInput                  // mediator.MsgInput
	tagMedRound                  // mediator.MsgRound
	tagMedStop                   // mediator.MsgStop
	tagMedHint                   // mediator.MsgHint
	tagElement                   // field.Element
	tagAction                    // game.Action
	tagString                    // string

	numTags = iota // the tags allocated, the reserved ones included
)

// encodeCap is the initial capacity of an encoded payload: enough for the
// common envelope (instance id plus a body of a few varints or elements)
// in one allocation.
const encodeCap = 64

// EncodePayload encodes one protocol payload as opaque bytes — how the
// mesh ships protocol messages, and how cluster mode ships moves and wills
// between daemons without widening the JSON contract. A type the codec
// does not know (a proto.Envelope value among them), a nil envelope, a nil
// or nested envelope body, and an unreduced field element are errors.
func EncodePayload(v any) ([]byte, error) {
	e := encoder{b: make([]byte, 0, encodeCap)}
	e.payload(v, false)
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// DecodePayload reverses EncodePayload. Any input that is not exactly one
// canonical encoding is an error, never a panic, and what it allocates is
// bounded by the input's length.
func DecodePayload(b []byte) (any, error) {
	d := decoder{b: b}
	v := d.payload(false)
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// encoder appends one payload to b; the first failure sticks in err.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("wire: encode: "+format, args...)
	}
}

func (e *encoder) payload(v any, inEnvelope bool) {
	switch m := v.(type) {
	case *proto.Envelope:
		if inEnvelope {
			e.fail("nested envelope")
			return
		}
		if m == nil {
			e.fail("nil envelope")
			return
		}
		e.tag(tagEnvelope)
		e.string(m.Instance)
		e.payload(m.Body, true)
	case ba.MsgEst:
		e.tag(tagBAEst)
		e.int(m.Round)
		e.int(m.V)
	case ba.MsgAux:
		e.tag(tagBAAux)
		e.int(m.Round)
		e.int(m.V)
	case ba.MsgDone:
		e.tag(tagBADone)
		e.int(m.V)
	case avss.MsgRow:
		e.tag(tagAVSSRow)
		e.b = binary.AppendUvarint(e.b, uint64(len(m.Coeffs)))
		for _, c := range m.Coeffs {
			e.element(c)
		}
	case avss.MsgPoint:
		e.tag(tagAVSSPoint)
		e.element(m.V)
	case avss.MsgReady:
		e.tag(tagAVSSReady)
	case avss.MsgShare:
		e.tag(tagAVSSShare)
		e.element(m.V)
	case mediator.MsgInput:
		e.tag(tagMedInput)
		e.int(m.Round)
		e.element(m.X)
	case mediator.MsgRound:
		e.tag(tagMedRound)
		e.int(m.R)
	case mediator.MsgStop:
		e.tag(tagMedStop)
		e.element(m.Action)
	case mediator.MsgHint:
		e.tag(tagMedHint)
		e.element(m.V)
	case field.Element:
		e.tag(tagElement)
		e.element(m)
	case game.Action:
		e.tag(tagAction)
		e.int(int(m))
	case string:
		e.tag(tagString)
		e.string(m)
	default:
		e.fail("unsupported payload type %T", v)
	}
}

func (e *encoder) tag(t byte) { e.b = append(e.b, t) }

func (e *encoder) int(x int) { e.b = binary.AppendVarint(e.b, int64(x)) }

func (e *encoder) string(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) element(x field.Element) {
	if uint64(x) >= field.P {
		e.fail("field element %d not reduced", uint64(x))
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, uint64(x))
}

// decoder consumes one payload from b. The first failure sticks in err
// and empties b, so every later read fails without touching the input.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: decode: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) payload(inEnvelope bool) any {
	switch tag := d.tag(); tag {
	case tagEnvelope:
		if inEnvelope {
			d.fail("nested envelope")
			return nil
		}
		inst := d.string()
		return &proto.Envelope{Instance: inst, Body: d.payload(true)}
	case tagBAEst:
		return ba.MsgEst{Round: d.int(), V: d.int()}
	case tagBAAux:
		return ba.MsgAux{Round: d.int(), V: d.int()}
	case tagBADone:
		return ba.MsgDone{V: d.int()}
	case tagAVSSRow:
		var cs []field.Element
		if n := d.length(8); n > 0 {
			cs = make([]field.Element, n)
			for i := range cs {
				cs[i] = d.element()
			}
		}
		return avss.MsgRow{Coeffs: cs}
	case tagAVSSPoint:
		return avss.MsgPoint{V: d.element()}
	case tagAVSSReady:
		return avss.MsgReady{}
	case tagAVSSShare:
		return avss.MsgShare{V: d.element()}
	case tagMedInput:
		return mediator.MsgInput{Round: d.int(), X: d.element()}
	case tagMedRound:
		return mediator.MsgRound{R: d.int()}
	case tagMedStop:
		return mediator.MsgStop{Action: d.element()}
	case tagMedHint:
		return mediator.MsgHint{V: d.element()}
	case tagElement:
		return d.element()
	case tagAction:
		return game.Action(d.int())
	case tagString:
		return d.string()
	default:
		d.fail("unknown tag %d", tag)
		return nil
	}
}

func (d *decoder) tag() byte {
	if len(d.b) == 0 {
		d.fail("truncated: want a tag")
		return 0
	}
	t := d.b[0]
	d.b = d.b[1:]
	return t
}

// uvarint reads a minimal uvarint: a longer encoding of the same value
// (a zero final byte) would not re-encode to the same bytes.
func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.fail("truncated or overlong varint")
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.fail("non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) int() int {
	u := d.uvarint()
	x := int64(u>>1) ^ -int64(u&1) // zig-zag
	if int64(int(x)) != x {
		d.fail("int %d out of range", x)
		return 0
	}
	return int(x)
}

// length reads a count of items of size bytes each and checks, before
// anything is allocated for them, that they fit in the bytes that remain.
func (d *decoder) length(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.length(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) element() field.Element {
	if len(d.b) < 8 {
		d.fail("truncated: want an 8-byte field element, have %d bytes", len(d.b))
		return 0
	}
	x := binary.LittleEndian.Uint64(d.b)
	if x >= field.P {
		d.fail("field element %d not reduced", x)
		return 0
	}
	d.b = d.b[8:]
	return field.Element(x)
}

package avss

import (
	"asyncmediator/internal/async"
	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/rs"
)

// MsgShare carries one party's share of an opened value.
type MsgShare struct{ V field.Element }

// Open reconstructs a shared value towards one recipient or towards
// everyone, using online error correction (packages rs): it tolerates up
// to t wrong shares and succeeds as soon as deg+t+1 agreeing shares have
// arrived. Parties contribute via Input; the value surfaces through
// onValue at receiving parties.
//
// Open is the output primitive of the MPC engine: private outputs use one
// recipient, public openings (e.g. the c = r² opening of the random-bit
// protocol) use Public = true.
type Open struct {
	deg    int // degree of the sharing (t, or 2t for unreduced products)
	t      int // maximum wrong shares
	target async.PID
	public bool

	sent    bool
	points  []field.Element // points[p] = p's share, for p in got
	got     proto.Senders
	done    bool
	onValue func(ctx *proto.Ctx, v field.Element)
}

var _ proto.Module = (*Open)(nil)

// NewOpen creates a private opening among n parties towards target.
func NewOpen(n, deg, t int, target async.PID, onValue func(ctx *proto.Ctx, v field.Element)) *Open {
	return &Open{deg: deg, t: t, target: target, points: make([]field.Element, n), got: proto.NewSenders(n), onValue: onValue}
}

// NewPublicOpen creates an opening among n parties towards all of them.
func NewPublicOpen(n, deg, t int, onValue func(ctx *proto.Ctx, v field.Element)) *Open {
	o := NewOpen(n, deg, t, 0, onValue)
	o.public = true
	return o
}

// Start implements proto.Module.
func (o *Open) Start(ctx *proto.Ctx) {}

// Input contributes this party's share. Duplicate calls are ignored.
func (o *Open) Input(ctx *proto.Ctx, share field.Element) {
	if o.sent {
		return
	}
	o.sent = true
	if o.public {
		ctx.Broadcast(MsgShare{V: share})
		return
	}
	ctx.Send(o.target, MsgShare{V: share})
}

// Handle implements proto.Module.
func (o *Open) Handle(ctx *proto.Ctx, from async.PID, body any) {
	m, ok := body.(MsgShare)
	if !ok || o.done {
		return
	}
	if !o.public && ctx.Self() != o.target {
		return
	}
	if !o.got.Add(from) {
		return
	}
	o.points[from] = m.V
	// Below deg+t+1 shares OEC admits no error count and always fails.
	if o.got.Len() < o.deg+o.t+1 {
		return
	}
	p, ok := rs.OEC(gathered(o.points, &o.got), o.deg, o.t)
	if !ok {
		return
	}
	o.done = true
	if o.onValue != nil {
		o.onValue(ctx, p.Constant())
	}
}

// gathered returns the points of the parties in got, as (p+1, points[p])
// in PID order, which is X order, so decoding is deterministic.
func gathered(points []field.Element, got *proto.Senders) []poly.Point {
	pts := make([]poly.Point, 0, got.Len())
	for p, v := range points {
		if got.Has(async.PID(p)) {
			pts = append(pts, poly.Point{X: field.Element(p + 1), Y: v})
		}
	}
	return pts
}

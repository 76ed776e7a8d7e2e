// Package avss implements asynchronous verifiable secret sharing in the
// style of Ben-Or, Canetti and Goldreich (1993), using symmetric bivariate
// polynomials and pairwise consistency checks.
//
// Dealing: the dealer samples a random symmetric bivariate polynomial
// F(x,y) of degree t in each variable with F(0,0) = secret, and privately
// sends party i its row f_i(y) = F(i+1, y). Party i then sends each party
// j the point f_i(j+1); by symmetry an honest pair checks f_i(j+1) =
// f_j(i+1). A party that verifies agreement with n-t parties broadcasts
// READY. A party that observes 2t+1 READYs but holds no consistent row
// recovers its row from received points via online error correction.
// The sharing completes when a party holds a (verified or recovered) row
// and has n-t READYs; its share is f_i(0).
//
// With n > 4t this errorless construction has the standard guarantees.
// It is simpler than full BCG in two ways: READY is a plain multicast,
// not a reliable broadcast, and there is no complaint round — a party
// whose row disagrees with its peers stays silent and, once enough READYs
// arrive, recovers its row by online error correction. With
// n > 3t the same skeleton is used by the paper's epsilon-theorems: an
// honest dealer still completes everywhere, while a malicious dealer can
// cause an epsilon-probability failure, which the game layer accounts for
// (Theorems 4.2 and 4.5 only promise epsilon-robustness).
package avss

import (
	"asyncmediator/internal/async"
	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/rs"
)

// Message kinds.
type (
	// MsgRow carries the dealer's private row polynomial for the recipient
	// (coefficients of f_i(y), low to high).
	MsgRow struct{ Coeffs []field.Element }
	// MsgPoint carries f_sender(receiver+1): the sender's evaluation of
	// its row at the receiver's index.
	MsgPoint struct{ V field.Element }
	// MsgReady announces the sender verified (or recovered) its row.
	MsgReady struct{}
)

// AVSS is one sharing instance for a designated dealer.
//
// Two parameters govern it: deg, the sharing polynomial degree (the
// privacy threshold — deg+1 shares determine the secret, deg reveal
// nothing), and faults, the liveness/error budget (how many parties may
// be malicious or silent). The paper's no-punishment theorems use
// deg = faults = k+t; the punishment theorems use deg = k+t with
// faults = t, because punishment deters the k rational players from
// stalling while privacy must still hold against the full coalition.
type AVSS struct {
	dealer      async.PID
	n           int
	deg, faults int

	secret     field.Element
	haveSecret bool

	row    poly.Poly
	rowOK  bool // row verified against n-t parties or recovered
	shared bool // points broadcast

	points  []field.Element // points[p] = f_p(self+1), for p in got
	got     proto.Senders   // parties whose point arrived
	matches proto.Senders   // parties whose point lies on the row

	readySent bool
	readies   proto.Senders

	completed  bool
	onComplete func(ctx *proto.Ctx, share field.Element)
}

var _ proto.Module = (*AVSS)(nil)

// New creates a receiving instance for the given dealer with sharing
// degree deg and fault budget faults (deg >= faults). onComplete fires
// exactly once, delivering this party's share.
func New(dealer async.PID, n, deg, faults int, onComplete func(ctx *proto.Ctx, share field.Element)) *AVSS {
	return &AVSS{
		dealer:     dealer,
		n:          n,
		deg:        deg,
		faults:     faults,
		points:     make([]field.Element, n),
		got:        proto.NewSenders(n),
		matches:    proto.NewSenders(n),
		readies:    proto.NewSenders(n),
		onComplete: onComplete,
	}
}

// NewDealer is New for the dealer, which deals secret when it starts.
func NewDealer(dealer async.PID, n, deg, faults int, secret field.Element,
	onComplete func(ctx *proto.Ctx, share field.Element)) *AVSS {
	a := New(dealer, n, deg, faults, onComplete)
	a.secret = secret
	a.haveSecret = true
	return a
}

// Start implements proto.Module.
func (a *AVSS) Start(ctx *proto.Ctx) {
	if ctx.Self() == a.dealer && a.haveSecret {
		a.deal(ctx)
	}
}

func (a *AVSS) deal(ctx *proto.Ctx) {
	f := poly.NewBivariate(ctx.Rand(), a.deg, a.secret)
	// Batched dealing: all n rows are evaluated in one kernel sweep over
	// a single backing allocation (see poly.Bivariate.Rows) instead of
	// one scalar Row pass plus one copy per recipient.
	for j, row := range f.Rows(a.n) {
		ctx.Send(async.PID(j), MsgRow{Coeffs: row})
	}
}

// Handle implements proto.Module.
func (a *AVSS) Handle(ctx *proto.Ctx, from async.PID, body any) {
	switch m := body.(type) {
	case MsgRow:
		if from != a.dealer || a.row != nil || len(m.Coeffs) > a.deg+1 {
			return
		}
		a.row = poly.New(m.Coeffs...)
		a.broadcastPoints(ctx)
		a.recheckMatches(ctx)

	case MsgPoint:
		if !a.got.Add(from) {
			return
		}
		a.points[from] = m.V
		a.checkMatch(ctx, from)
		a.tryRecover(ctx)

	case MsgReady:
		if !a.readies.Add(from) {
			return
		}
		a.tryRecover(ctx)
		a.tryComplete(ctx)
	}
}

func (a *AVSS) broadcastPoints(ctx *proto.Ctx) {
	if a.shared || a.row == nil {
		return
	}
	a.shared = true
	// One vectorized Horner pass evaluates the row at every party index.
	xs := make([]field.Element, a.n)
	for j := range xs {
		xs[j] = field.Element(j + 1)
	}
	for j, v := range poly.EvalMany(a.row, xs) {
		ctx.Send(async.PID(j), MsgPoint{V: v})
	}
}

func (a *AVSS) checkMatch(ctx *proto.Ctx, from async.PID) {
	if a.row == nil {
		return
	}
	if a.points[from] == a.row.Eval(field.Element(int(from)+1)) {
		a.matches.Add(from)
	}
	if !a.readySent && a.matches.Len() >= a.n-a.faults {
		a.rowOK = true
		a.sendReady(ctx)
	}
}

func (a *AVSS) recheckMatches(ctx *proto.Ctx) {
	for p := range async.PID(a.n) {
		if a.got.Has(p) {
			a.checkMatch(ctx, p)
		}
	}
	a.tryComplete(ctx)
}

// tryRecover reconstructs the row from received points once enough READYs
// prove a valid dealing exists that this party did not (consistently)
// receive. Recovery needs 2t+1 agreeing points (degree t, up to t wrong).
func (a *AVSS) tryRecover(ctx *proto.Ctx) {
	if a.rowOK || a.readies.Len() < a.faults+1 || a.got.Len() < a.deg+a.faults+1 {
		return
	}
	p, ok := rs.OEC(gathered(a.points, &a.got), a.deg, a.faults)
	if !ok {
		return
	}
	a.row = p
	a.rowOK = true
	a.broadcastPoints(ctx)
	a.sendReady(ctx)
	a.tryComplete(ctx)
}

func (a *AVSS) sendReady(ctx *proto.Ctx) {
	if a.readySent {
		return
	}
	a.readySent = true
	ctx.Broadcast(MsgReady{})
}

func (a *AVSS) tryComplete(ctx *proto.Ctx) {
	if a.completed || !a.rowOK || a.readies.Len() < a.n-a.faults {
		return
	}
	a.completed = true
	if a.onComplete != nil {
		a.onComplete(ctx, a.row.Eval(0))
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

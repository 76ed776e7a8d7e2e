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

	points  map[async.PID]field.Element
	matches map[async.PID]bool

	readySent bool
	readies   map[async.PID]bool

	completed  bool
	share      field.Element
	onComplete func(ctx *proto.Ctx, share field.Element)
}

var _ proto.Module = (*AVSS)(nil)

// New creates a receiving instance for the given dealer with equal privacy
// degree and fault budget t (the common case). onComplete fires exactly
// once, delivering this party's share.
func New(dealer async.PID, n, t int, onComplete func(ctx *proto.Ctx, share field.Element)) *AVSS {
	return NewWithDegree(dealer, n, t, t, onComplete)
}

// NewWithDegree creates a receiving instance with separate sharing degree
// and fault budget (deg >= faults).
func NewWithDegree(dealer async.PID, n, deg, faults int, onComplete func(ctx *proto.Ctx, share field.Element)) *AVSS {
	return &AVSS{
		dealer:     dealer,
		n:          n,
		deg:        deg,
		faults:     faults,
		points:     make(map[async.PID]field.Element),
		matches:    make(map[async.PID]bool),
		readies:    make(map[async.PID]bool),
		onComplete: onComplete,
	}
}

// NewDealer creates the dealer-side instance with its secret.
func NewDealer(dealer async.PID, n, t int, secret field.Element,
	onComplete func(ctx *proto.Ctx, share field.Element)) *AVSS {
	return NewDealerWithDegree(dealer, n, t, t, secret, onComplete)
}

// NewDealerWithDegree is NewDealer with separate degree and fault budget.
func NewDealerWithDegree(dealer async.PID, n, deg, faults int, secret field.Element,
	onComplete func(ctx *proto.Ctx, share field.Element)) *AVSS {
	a := NewWithDegree(dealer, n, deg, faults, onComplete)
	a.secret = secret
	a.haveSecret = true
	return a
}

// Completed reports whether the sharing completed, and the share.
func (a *AVSS) Completed() (field.Element, bool) { return a.share, a.completed }

// Start implements proto.Module.
func (a *AVSS) Start(ctx *proto.Ctx) {
	if ctx.Self() == a.dealer && a.haveSecret {
		a.deal(ctx)
	}
}

// Input supplies the dealer's secret after start. No-op for non-dealers or
// when already dealt.
func (a *AVSS) Input(ctx *proto.Ctx, secret field.Element) {
	if ctx.Self() != a.dealer || a.haveSecret {
		return
	}
	a.secret = secret
	a.haveSecret = true
	a.deal(ctx)
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
		if _, dup := a.points[from]; dup {
			return
		}
		a.points[from] = m.V
		a.checkMatch(ctx, from)
		a.tryRecover(ctx)

	case MsgReady:
		if a.readies[from] {
			return
		}
		a.readies[from] = true
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
		a.matches[from] = true
	}
	if !a.readySent && len(a.matches) >= a.n-a.faults {
		a.rowOK = true
		a.sendReady(ctx)
	}
}

func (a *AVSS) recheckMatches(ctx *proto.Ctx) {
	for from := range a.points {
		a.checkMatch(ctx, from)
	}
	a.tryComplete(ctx)
}

// tryRecover reconstructs the row from received points once enough READYs
// prove a valid dealing exists that this party did not (consistently)
// receive. Recovery needs 2t+1 agreeing points (degree t, up to t wrong).
func (a *AVSS) tryRecover(ctx *proto.Ctx) {
	if a.rowOK || len(a.readies) < a.faults+1 || len(a.points) < a.deg+a.faults+1 {
		return
	}
	pts := make([]poly.Point, 0, len(a.points))
	for from, v := range a.points {
		pts = append(pts, poly.Point{X: field.Element(int(from) + 1), Y: v})
	}
	sortPoints(pts)
	p, ok := rs.OEC(pts, a.deg, a.faults)
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
	if a.completed || !a.rowOK || len(a.readies) < a.n-a.faults {
		return
	}
	a.completed = true
	a.share = a.row.Eval(0)
	if a.onComplete != nil {
		a.onComplete(ctx, a.share)
	}
}

// sortPoints orders points by X for deterministic decoding.
func sortPoints(pts []poly.Point) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].X < pts[j-1].X; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

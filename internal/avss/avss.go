// Package avss implements asynchronous verifiable secret sharing in the
// style of Ben-Or, Canetti and Goldreich (1993), using symmetric bivariate
// polynomials and pairwise consistency checks.
//
// One instance shares a vector of m secrets (m >= 1) from one dealer, so
// a party that deals several values at once pays for one dealing.
//
// Dealing: for each secret k the dealer samples a random symmetric
// bivariate polynomial F_k(x,y) of degree deg in each variable with
// F_k(0,0) = secret k, and privately sends party i its m rows
// f_{k,i}(y) = F_k(i+1, y) in one message. Party i then sends each party j
// the m points f_{k,i}(j+1) in one message; by symmetry an honest pair
// checks f_{k,i}(j+1) = f_{k,j}(i+1) for every k. A party that verifies
// agreement in every component with n-t parties broadcasts one READY. A
// party that observes t+1 READYs but holds no consistent rows recovers
// them from received points via online error correction, one component
// at a time, and only once every component decodes. The sharing completes
// when a party holds (verified or recovered) rows and has n-t READYs; its
// shares are f_{k,i}(0).
//
// With n > 4t this errorless construction has the standard guarantees.
// It is simpler than full BCG in two ways: READY is a plain multicast,
// not a reliable broadcast, and there is no complaint round — a party
// whose rows disagree with its peers stays silent and, once enough READYs
// arrive, recovers its rows by online error correction. With
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
	// MsgRow carries the dealer's m private rows for the recipient,
	// flattened: row k's deg+1 coefficients of f_{k,i}(y), low to high,
	// fill Coeffs[k(deg+1) : (k+1)(deg+1)]. A row of any other length is
	// refused, which is also the degree check.
	MsgRow struct{ Coeffs []field.Element }
	// MsgPoint carries f_{k,sender}(receiver+1) for every component k: the
	// sender's evaluations of its rows at the receiver's index.
	MsgPoint struct{ V []field.Element }
	// MsgReady announces the sender verified (or recovered) its rows.
	MsgReady struct{}
)

// AVSS is one sharing instance of m secrets for a designated dealer.
//
// Two parameters govern it: deg, the sharing polynomial degree (the
// privacy threshold — deg+1 shares determine a secret, deg reveal
// nothing), and faults, the liveness/error budget (how many parties may
// be malicious or silent). The paper's no-punishment theorems use
// deg = faults = k+t; the punishment theorems use deg = k+t with
// faults = t, because punishment deters the k rational players from
// stalling while privacy must still hold against the full coalition.
type AVSS struct {
	dealer      async.PID
	n, m        int
	deg, faults int

	secrets []field.Element // the dealer's, nil elsewhere

	rows   []poly.Poly // rows[k] = f_{k,self}; nil until dealt or recovered
	rowsOK bool        // rows verified against n-t parties or recovered
	shared bool        // points broadcast

	points  [][]field.Element // points[p] = p's m points at self+1, for p in got
	got     proto.Senders     // parties whose points arrived
	matches proto.Senders     // parties whose points lie on every row

	readySent bool
	readies   proto.Senders

	completed  bool
	onComplete func(ctx *proto.Ctx, shares []field.Element)
}

var _ proto.Module = (*AVSS)(nil)

// New creates a receiving instance of m secrets for the given dealer with
// sharing degree deg and fault budget faults (deg >= faults). onComplete
// fires exactly once, delivering this party's m shares.
func New(dealer async.PID, n, m, deg, faults int, onComplete func(ctx *proto.Ctx, shares []field.Element)) *AVSS {
	return &AVSS{
		dealer:     dealer,
		n:          n,
		m:          m,
		deg:        deg,
		faults:     faults,
		points:     make([][]field.Element, n),
		got:        proto.NewSenders(n),
		matches:    proto.NewSenders(n),
		readies:    proto.NewSenders(n),
		onComplete: onComplete,
	}
}

// NewDealer is New for the dealer, which deals secrets when it starts.
func NewDealer(dealer async.PID, n, deg, faults int, secrets []field.Element,
	onComplete func(ctx *proto.Ctx, shares []field.Element)) *AVSS {
	a := New(dealer, n, len(secrets), deg, faults, onComplete)
	a.secrets = secrets
	return a
}

// Start implements proto.Module.
func (a *AVSS) Start(ctx *proto.Ctx) {
	if ctx.Self() == a.dealer && a.secrets != nil {
		a.deal(ctx)
	}
}

// deal sends every party its m rows in one message. All n·m rows share
// one backing array; a row shorter than deg+1 (a zero leading
// coefficient) keeps its zero padding, so every row has the same length.
func (a *AVSS) deal(ctx *proto.Ctx) {
	w := a.deg + 1
	flat := make([]field.Element, a.n*a.m*w)
	for k, s := range a.secrets {
		for j, row := range poly.NewBivariate(ctx.Rand(), a.deg, s).Rows(a.n) {
			copy(flat[(j*a.m+k)*w:], row)
		}
	}
	for j := range a.n {
		ctx.Send(async.PID(j), MsgRow{Coeffs: flat[j*a.m*w : (j+1)*a.m*w : (j+1)*a.m*w]})
	}
}

// Handle implements proto.Module.
func (a *AVSS) Handle(ctx *proto.Ctx, from async.PID, body any) {
	switch m := body.(type) {
	case MsgRow:
		if from != a.dealer || a.rows != nil || len(m.Coeffs) != a.m*(a.deg+1) {
			return
		}
		a.rows = split(m.Coeffs, a.m)
		a.broadcastPoints(ctx)
		a.recheckMatches(ctx)

	case MsgPoint:
		if len(m.V) != a.m || !a.got.Add(from) {
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

// split cuts coeffs into m rows of equal length.
func split(coeffs []field.Element, m int) []poly.Poly {
	w := len(coeffs) / m
	rows := make([]poly.Poly, m)
	for k := range rows {
		rows[k] = poly.New(coeffs[k*w : (k+1)*w]...)
	}
	return rows
}

// broadcastPoints sends every party the evaluations of this party's rows
// at its index, all n vectors carved from one backing array.
func (a *AVSS) broadcastPoints(ctx *proto.Ctx) {
	if a.shared || a.rows == nil {
		return
	}
	a.shared = true
	flat := make([]field.Element, a.n*a.m)
	for j := range a.n {
		v := flat[j*a.m : (j+1)*a.m : (j+1)*a.m]
		for k, row := range a.rows {
			v[k] = row.Eval(field.Element(j + 1))
		}
		ctx.Send(async.PID(j), MsgPoint{V: v})
	}
}

func (a *AVSS) checkMatch(ctx *proto.Ctx, from async.PID) {
	if a.rows == nil {
		return
	}
	if a.onRows(from) {
		a.matches.Add(from)
	}
	if !a.readySent && a.matches.Len() >= a.n-a.faults {
		a.rowsOK = true
		a.sendReady(ctx)
	}
}

// onRows reports whether every one of from's points lies on this party's
// row of the same component.
func (a *AVSS) onRows(from async.PID) bool {
	x := field.Element(int(from) + 1)
	for k, v := range a.points[from] {
		if v != a.rows[k].Eval(x) {
			return false
		}
	}
	return true
}

func (a *AVSS) recheckMatches(ctx *proto.Ctx) {
	for p := range async.PID(a.n) {
		if a.got.Has(p) {
			a.checkMatch(ctx, p)
		}
	}
	a.tryComplete(ctx)
}

// tryRecover reconstructs the rows from received points once enough
// READYs prove a valid dealing exists that this party did not
// (consistently) receive. Each component needs deg+t+1 points agreeing
// with one degree-deg polynomial; the rows are replaced only when every
// component decodes.
func (a *AVSS) tryRecover(ctx *proto.Ctx) {
	if a.rowsOK || a.readies.Len() < a.faults+1 || a.got.Len() < a.deg+a.faults+1 {
		return
	}
	pts := make([]poly.Point, 0, a.got.Len())
	rows := make([]poly.Poly, a.m)
	for k := range rows {
		// Points in PID order, which is X order, so decoding is
		// deterministic.
		pts = pts[:0]
		for p, v := range a.points {
			if a.got.Has(async.PID(p)) {
				pts = append(pts, poly.Point{X: field.Element(p + 1), Y: v[k]})
			}
		}
		row, ok := rs.OEC(pts, a.deg, a.faults)
		if !ok {
			return
		}
		rows[k] = row
	}
	a.rows = rows
	a.rowsOK = true
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
	if a.completed || !a.rowsOK || a.readies.Len() < a.n-a.faults {
		return
	}
	a.completed = true
	if a.onComplete == nil {
		return
	}
	shares := make([]field.Element, a.m)
	for k, row := range a.rows {
		shares[k] = row.Constant()
	}
	a.onComplete(ctx, shares)
}

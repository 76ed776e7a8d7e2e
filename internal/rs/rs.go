// Package rs implements Reed-Solomon decoding over GF(2^31-1) via the
// Berlekamp-Welch algorithm, plus the "online error correction" (OEC)
// pattern used by asynchronous MPC (Ben-Or, Canetti, Goldreich 1993;
// Ben-Or, Kelmer, Rabin 1994).
//
// In the asynchronous setting a party reconstructing a degree-deg shared
// secret receives share points one at a time; up to t of them may be wrong
// (sent by malicious parties) and up to t may never arrive. OEC repeatedly
// attempts Berlekamp-Welch decoding as points trickle in. A decode is only
// trusted when the candidate polynomial agrees with at least deg+t+1 of the
// received points: a wrong polynomial can agree with at most deg honest
// points plus t corrupt ones, so agreement deg+t+1 pins down the truth.
// Eventual success needs n-t >= deg+t+1, i.e. n >= deg+2t+1 — which is the
// reason BCG needs n > 4t (deg = 2t after multiplication) and BKR needs
// n > 3t (deg = t).
//
// The decoder runs on the batched field.Vec kernels: the Berlekamp-Welch
// linear system lives in one flat pooled buffer reused across OEC's
// error-budget attempts, Gaussian elimination rows are eliminated with
// fused scalar-multiply-subtract sweeps, and agreement counting evaluates
// the candidate at every point in one vectorized Horner pass. The
// original scalar implementation lives in ref_test.go as the
// differential-test oracle.
package rs

import (
	"errors"
	"fmt"
	"sync"

	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
)

// ErrDecode is returned when no polynomial of the requested degree agrees
// with enough of the received points.
var ErrDecode = errors.New("rs: decoding failed")

// workspace holds the scratch buffers for one decoding attempt: the flat
// m x u elimination matrix, its right-hand side, and the division and
// evaluation temporaries. A pooled workspace is reused across OEC's
// successive error budgets instead of allocating the matrix per attempt.
type workspace struct {
	mat  field.Vec // rows * u, row-major
	rhs  field.Vec
	piv  []int
	rem  field.Vec // division remainder scratch
	quot field.Vec // division quotient scratch
	ecf  field.Vec // error-locator coefficients (monic)
	xs   field.Vec // point X coordinates
	acc  field.Vec // multi-point Horner accumulator
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

// grow returns buf resized to n (reallocating if needed) with all
// elements zeroed.
func grow(buf field.Vec, n int) field.Vec {
	if cap(buf) < n {
		return make(field.Vec, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Decode finds the unique polynomial p of degree <= deg that agrees with
// all but at most e of the given points, assuming one exists, using
// Berlekamp-Welch. The X coordinates must be distinct.
//
// Requires len(points) >= deg + 1 + 2*e; otherwise an error is returned.
func Decode(points []poly.Point, deg, e int) (poly.Poly, error) {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	return ws.decode(points, deg, e)
}

func (ws *workspace) decode(points []poly.Point, deg, e int) (poly.Poly, error) {
	m := len(points)
	if deg < 0 || e < 0 {
		return nil, fmt.Errorf("rs: invalid parameters deg=%d e=%d", deg, e)
	}
	if m < deg+1+2*e {
		return nil, fmt.Errorf("rs: need %d points for deg=%d e=%d, have %d: %w",
			deg+1+2*e, deg, e, m, ErrDecode)
	}
	if e == 0 {
		// Plain interpolation through the first deg+1 points, then verify.
		p, err := poly.Interpolate(points[:deg+1])
		if err != nil {
			return nil, fmt.Errorf("rs: %w", err)
		}
		if ws.countDisagreeing(p, points) > 0 {
			return nil, ErrDecode
		}
		return p, nil
	}

	// Berlekamp-Welch: find E(x) monic of degree e and Q(x) of degree
	// <= deg+e with Q(x_i) = y_i * E(x_i) for all i. Then p = Q / E.
	//
	// Unknowns: e coefficients of E (E is monic: E = x^e + sum e_j x^j),
	// deg+e+1 coefficients of Q. Total u = deg + 2e + 1 unknowns; one
	// equation per point. Layout per equation i:
	//   sum_j  q_j x_i^j  -  y_i * sum_j e_j x_i^j  =  y_i * x_i^e
	// Columns 0..deg+e are Q coefficients, columns deg+e+1..deg+2e are E
	// coefficients e_0..e_{e-1}.
	u := deg + 2*e + 1
	ws.mat = grow(ws.mat, m*u)
	ws.rhs = grow(ws.rhs, m)
	for i, pt := range points {
		row := ws.mat[i*u : (i+1)*u]
		x := uint64(pt.X)
		y := uint64(pt.Y)
		xp := uint64(1)
		for j := 0; j <= deg+e; j++ {
			row[j] = xp
			xp = mulU(xp, x)
		}
		xp = 1
		for j := 0; j < e; j++ {
			row[deg+e+1+j] = negU(mulU(y, xp))
			xp = mulU(xp, x)
		}
		// xp is now x_i^e.
		ws.rhs[i] = mulU(y, xp)
	}
	sol, ok := ws.solve(m, u)
	if !ok {
		return nil, ErrDecode
	}
	// Divide Q by the monic error locator E; a non-zero remainder or an
	// over-degree quotient means this error budget does not fit.
	ws.ecf = grow(ws.ecf, e+1)
	copy(ws.ecf, sol[deg+e+1:])
	ws.ecf[e] = 1 // monic
	quot, ok := ws.divideMonic(sol[:deg+e+1], ws.ecf)
	if !ok {
		return nil, ErrDecode
	}
	p := poly.New(field.FromVec(nil, quot)...)
	if p.Degree() > deg {
		return nil, ErrDecode
	}
	// Verify the error bound actually holds.
	if ws.countDisagreeing(p, points) > e {
		return nil, ErrDecode
	}
	return p, nil
}

// solve performs Gaussian elimination on the workspace's flat m x u
// system. It returns some solution if the system is consistent (free
// variables zero), or false if it is inconsistent. Row operations are the
// fused ScalarMulSubVec kernel over the flat rows.
func (ws *workspace) solve(m, u int) (field.Vec, bool) {
	mat, rhs := ws.mat, ws.rhs
	ws.piv = ws.piv[:0]
	row := 0
	for col := 0; col < u && row < m; col++ {
		// Find pivot.
		sel := -1
		for r := row; r < m; r++ {
			if mat[r*u+col] != 0 {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		if sel != row {
			// Entries left of col are zero in every row >= row (pivot
			// columns were eliminated, skipped columns are zero by the
			// pivot search), so swapping the [col:] tails is a full swap.
			a := mat[row*u+col : (row+1)*u]
			b := mat[sel*u+col : (sel+1)*u]
			for c := range a {
				a[c], b[c] = b[c], a[c]
			}
			rhs[row], rhs[sel] = rhs[sel], rhs[row]
		}
		prow := mat[row*u+col : (row+1)*u]
		inv := invU(prow[0])
		field.ScalarMulVec(prow, prow, inv)
		rhs[row] = mulU(rhs[row], inv)
		for r := 0; r < m; r++ {
			if r == row {
				continue
			}
			f := mat[r*u+col]
			if f == 0 {
				continue
			}
			field.ScalarMulSubVec(mat[r*u+col:(r+1)*u], prow, f)
			rhs[r] = subU(rhs[r], mulU(f, rhs[row]))
		}
		ws.piv = append(ws.piv, col)
		row++
	}
	// Inconsistency check: zero row with non-zero rhs.
	for r := row; r < m; r++ {
		if rhs[r] != 0 {
			return nil, false
		}
	}
	sol := grow(nil, u)
	for i, col := range ws.piv {
		sol[col] = rhs[i]
	}
	return sol, true
}

// divideMonic divides the polynomial with coefficients a by the monic
// polynomial b (b[len(b)-1] == 1), both low-to-high. It returns the
// quotient coefficients and whether the remainder is zero.
func (ws *workspace) divideMonic(a, b field.Vec) (field.Vec, bool) {
	db := len(b) - 1 // exact degree: b is monic
	da := len(a) - 1
	for da >= 0 && a[da] == 0 {
		da--
	}
	ws.rem = grow(ws.rem, da+1)
	copy(ws.rem, a[:da+1])
	qlen := da - db + 1
	if qlen < 0 {
		qlen = 0
	}
	ws.quot = grow(ws.quot, qlen)
	for dr := da; dr >= db; dr-- {
		c := ws.rem[dr] // leading inverse is 1: b is monic
		if c == 0 {
			continue
		}
		shift := dr - db
		ws.quot[shift] = c
		// rem[shift..dr] -= c * b
		field.ScalarMulSubVec(ws.rem[shift:dr+1], b, c)
	}
	for i := 0; i < db && i < len(ws.rem); i++ {
		if ws.rem[i] != 0 {
			return nil, false
		}
	}
	return ws.quot, true
}

// countDisagreeing evaluates p at every point in one vectorized Horner
// pass and counts mismatches.
func (ws *workspace) countDisagreeing(p poly.Poly, points []poly.Point) int {
	m := len(points)
	ws.xs = grow(ws.xs, m)
	ws.acc = grow(ws.acc, m)
	for i, pt := range points {
		ws.xs[i] = uint64(pt.X)
	}
	for i := len(p) - 1; i >= 0; i-- {
		field.HornerStepVec(ws.acc, ws.xs, uint64(p[i]))
	}
	bad := 0
	for i, pt := range points {
		if ws.acc[i] != uint64(pt.Y) {
			bad++
		}
	}
	return bad
}

// OEC attempts online error correction: given the points received so far,
// the polynomial degree deg, and a bound t on how many points the adversary
// controls, it tries to decode with every admissible error budget. It
// returns the decoded polynomial and true on success; callers invoke OEC
// again when more points arrive.
//
// Safety: a result is returned only if it agrees with at least deg+t+1 of
// the received points, which no wrong polynomial can achieve when at most t
// points are corrupt. Liveness: once all honest points have arrived
// (m >= n-t >= deg+t+1 when n >= deg+2t+1), decoding succeeds.
//
// One pooled workspace is shared across all error budgets, so the
// elimination matrix is allocated (at most) once per OEC call, not once
// per attempt.
func OEC(points []poly.Point, deg, t int) (poly.Poly, bool) {
	m := len(points)
	// e errors are admissible iff the surviving agreement m-e still meets
	// the deg+t+1 threshold and Berlekamp-Welch has enough points.
	maxE := m - (deg + t + 1)
	if cap2 := (m - deg - 1) / 2; cap2 < maxE {
		maxE = cap2
	}
	if t < maxE {
		maxE = t
	}
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	for e := 0; e <= maxE; e++ {
		if p, err := ws.decode(points, deg, e); err == nil {
			return p, true
		}
	}
	return nil, false
}

// CountAgreeing returns how many points lie on p.
func CountAgreeing(p poly.Poly, points []poly.Point) int {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	return len(points) - ws.countDisagreeing(p, points)
}

// Scalar mod-P helpers on raw limbs.
func subU(a, b uint64) uint64 { return uint64(field.Element(a).Sub(field.Element(b))) }
func mulU(a, b uint64) uint64 { return uint64(field.Element(a).Mul(field.Element(b))) }
func negU(a uint64) uint64    { return uint64(field.Element(a).Neg()) }
func invU(a uint64) uint64    { return uint64(field.Element(a).Inv()) }

package rs

import (
	"errors"
	"fmt"

	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
)

// The scalar reference decoder below is the pre-kernel code, kept as the
// correctness oracle for the differential tests and as the scalar
// baseline of the kernel benchmarks. Its e = 0 path interpolates with
// poly.Interpolate, the kernel, since poly's own oracle is test-only.

// oecRef is OEC on the reference decoder: the same admissible error
// budgets, each tried with decodeRef.
func oecRef(points []poly.Point, deg, t int) (poly.Poly, bool) {
	m := len(points)
	maxE := m - (deg + t + 1)
	if cap2 := (m - deg - 1) / 2; cap2 < maxE {
		maxE = cap2
	}
	if t < maxE {
		maxE = t
	}
	for e := 0; e <= maxE; e++ {
		if p, err := decodeRef(points, deg, e); err == nil {
			return p, true
		}
	}
	return nil, false
}

// decodeRef is the original Berlekamp-Welch decoder: per-attempt matrix
// allocation, [][]Element Gaussian elimination, scalar polynomial
// division.
func decodeRef(points []poly.Point, deg, e int) (poly.Poly, error) {
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
		for _, pt := range points {
			if p.Eval(pt.X) != pt.Y {
				return nil, ErrDecode
			}
		}
		return p, nil
	}

	u := deg + 2*e + 1
	rows := m
	mat := make([][]field.Element, rows)
	rhs := make([]field.Element, rows)
	for i, pt := range points {
		row := make([]field.Element, u)
		xp := field.Element(1)
		for j := 0; j <= deg+e; j++ {
			row[j] = xp
			xp = xp.Mul(pt.X)
		}
		xp = field.Element(1)
		for j := 0; j < e; j++ {
			row[deg+e+1+j] = pt.Y.Mul(xp).Neg()
			xp = xp.Mul(pt.X)
		}
		// xp is now x_i^e.
		rhs[i] = pt.Y.Mul(xp)
		mat[i] = row
	}
	sol, ok := solveRef(mat, rhs, u)
	if !ok {
		return nil, ErrDecode
	}
	q := poly.Poly(sol[:deg+e+1]).Clone()
	eCoeffs := make(poly.Poly, e+1)
	copy(eCoeffs, sol[deg+e+1:])
	eCoeffs[e] = 1 // monic
	quot, rem, err := divide(q, eCoeffs)
	if err != nil || !rem.IsZero() {
		return nil, ErrDecode
	}
	if quot.Degree() > deg {
		return nil, ErrDecode
	}
	bad := 0
	for _, pt := range points {
		if quot.Eval(pt.X) != pt.Y {
			bad++
		}
	}
	if bad > e {
		return nil, ErrDecode
	}
	return quot, nil
}

// divide returns quotient and remainder of a / b. b must be non-zero.
func divide(a, b poly.Poly) (quot, rem poly.Poly, err error) {
	if b.IsZero() {
		return nil, nil, errors.New("rs: division by zero polynomial")
	}
	rem = a.Clone()
	db := b.Degree()
	lead := b[db].Inv()
	var qc []field.Element
	for rem.Degree() >= db {
		dr := rem.Degree()
		c := rem[dr].Mul(lead)
		shift := dr - db
		for len(qc) <= shift {
			qc = append(qc, 0)
		}
		qc[shift] = qc[shift].Add(c)
		// rem -= c * x^shift * b
		sub := make(poly.Poly, shift+db+1)
		for i, bc := range b {
			sub[shift+i] = bc.Mul(c)
		}
		rem = rem.Sub(sub)
	}
	return poly.New(qc...), rem, nil
}

// solveRef performs Gaussian elimination on an m x u system (possibly
// over- or under-determined) with one []Element slice per row. It returns
// some solution if the system is consistent; free variables are set to
// zero. The second return is false if the system is inconsistent.
func solveRef(mat [][]field.Element, rhs []field.Element, u int) ([]field.Element, bool) {
	m := len(mat)
	pivotCols := make([]int, 0, u)
	row := 0
	for col := 0; col < u && row < m; col++ {
		// Find pivot.
		sel := -1
		for r := row; r < m; r++ {
			if mat[r][col] != 0 {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		mat[row], mat[sel] = mat[sel], mat[row]
		rhs[row], rhs[sel] = rhs[sel], rhs[row]
		inv := mat[row][col].Inv()
		for c := col; c < u; c++ {
			mat[row][c] = mat[row][c].Mul(inv)
		}
		rhs[row] = rhs[row].Mul(inv)
		for r := 0; r < m; r++ {
			if r == row || mat[r][col] == 0 {
				continue
			}
			factor := mat[r][col]
			for c := col; c < u; c++ {
				mat[r][c] = mat[r][c].Sub(factor.Mul(mat[row][c]))
			}
			rhs[r] = rhs[r].Sub(factor.Mul(rhs[row]))
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	// Inconsistency check: zero row with non-zero rhs.
	for r := row; r < m; r++ {
		if rhs[r] != 0 {
			return nil, false
		}
	}
	sol := make([]field.Element, u)
	for i, col := range pivotCols {
		sol[col] = rhs[i]
	}
	return sol, true
}

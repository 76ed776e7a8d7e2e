// Package poly implements univariate and symmetric bivariate polynomials
// over GF(2^31-1), together with Lagrange interpolation. These are the
// workhorses behind Shamir secret sharing (package shamir), Reed-Solomon
// decoding (package rs) and the BGW/BCG multiplication degree reduction
// (package mpc).
//
// The exported entry points run on the batched field.Vec kernels: one
// batch inversion per interpolation instead of one per basis polynomial,
// and O(n^2) master-polynomial interpolation instead of O(n^3) basis
// rebuilding. The original scalar implementations live in ref_test.go as
// the differential-test oracle.
package poly

import (
	"fmt"
	"math/rand"
	"strings"

	"asyncmediator/internal/field"
)

// Scalar mod-P helpers on raw limbs; Element is a uint64 under the hood,
// so these compile to the same branch-light sequences as the kernels.
func addU(a, b uint64) uint64 { return uint64(field.Element(a).Add(field.Element(b))) }
func subU(a, b uint64) uint64 { return uint64(field.Element(a).Sub(field.Element(b))) }
func mulU(a, b uint64) uint64 { return uint64(field.Element(a).Mul(field.Element(b))) }
func negU(a uint64) uint64    { return uint64(field.Element(a).Neg()) }

// Poly is a univariate polynomial; Poly[i] is the coefficient of x^i.
// The canonical form has no trailing zero coefficients (the zero polynomial
// is the empty slice). A nil Poly is the zero polynomial.
type Poly []field.Element

// New returns the polynomial with the given coefficients (low to high),
// trimmed to canonical form.
func New(coeffs ...field.Element) Poly {
	return Poly(coeffs).trim()
}

// Random returns a uniformly random polynomial of degree at most deg with
// the given constant term. This is exactly a Shamir sharing polynomial for
// secret = constant term.
func Random(rng *rand.Rand, deg int, constant field.Element) Poly {
	p := make(Poly, deg+1)
	p[0] = constant
	for i := 1; i <= deg; i++ {
		p[i] = field.Rand(rng)
	}
	return p.trim()
}

func (p Poly) trim() Poly {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// Degree returns the degree of p; the zero polynomial has degree -1.
// It scans the (usually empty) zero tail directly instead of building a
// trimmed slice, so it is safe to call in hot loops.
func (p Poly) Degree() int {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return n - 1
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p.Degree() < 0 }

// Eval evaluates p at x by Horner's rule.
func (p Poly) Eval(x field.Element) field.Element {
	var acc field.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(p[i])
	}
	return acc
}

// Constant returns p(0), the constant term.
func (p Poly) Constant() field.Element {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	for i := range out {
		var a, b field.Element
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		out[i] = a.Add(b)
	}
	return out.trim()
}

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	for i := range out {
		var a, b field.Element
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		out[i] = a.Sub(b)
	}
	return out.trim()
}

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	out := make(Poly, len(p))
	copy(out, p)
	return out
}

// Equal reports whether p and q are the same polynomial.
func (p Poly) Equal(q Poly) bool {
	a, b := p.trim(), q.trim()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer, printing the polynomial high-to-low.
func (p Poly) String() string {
	t := p.trim()
	if len(t) == 0 {
		return "0"
	}
	var sb strings.Builder
	for i := len(t) - 1; i >= 0; i-- {
		if t[i] == 0 && len(t) > 1 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(" + ")
		}
		switch i {
		case 0:
			fmt.Fprintf(&sb, "%v", t[i])
		case 1:
			fmt.Fprintf(&sb, "%v*x", t[i])
		default:
			fmt.Fprintf(&sb, "%v*x^%d", t[i], i)
		}
	}
	return sb.String()
}

// Point is an evaluation point (X, Y) with Y = p(X) for some polynomial p.
type Point struct {
	X, Y field.Element
}

// dupXErr reproduces the reference error for a duplicate X coordinate:
// the reported coordinate is points[i].X for the smallest i that appears
// in any duplicate pair.
func dupXErr(points []Point) error {
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			if points[i].X == points[j].X {
				return fmt.Errorf("poly: duplicate x coordinate %v", points[i].X)
			}
		}
	}
	return fmt.Errorf("poly: duplicate x coordinate not found")
}

// Interpolate returns the unique polynomial of degree < len(points) passing
// through all points, via Lagrange interpolation. The X coordinates must be
// distinct; otherwise an error is returned.
//
// Kernel algorithm (O(n^2) multiplications, one field inversion): build
// the master polynomial M(x) = prod_i (x - x_i) once, obtain each scaled
// basis polynomial M/(x - x_i) by synthetic division, read the
// denominators off M'(x_i) with a batched multi-point evaluation, and
// invert them all with one Montgomery batch inversion.
func Interpolate(points []Point) (Poly, error) {
	n := len(points)
	if n == 0 {
		return nil, nil
	}
	xs := field.AcquireVec(n)
	defer field.ReleaseVec(xs)
	for i, pt := range points {
		xs[i] = uint64(pt.X)
	}

	// Master polynomial M(x) = prod (x - x_i), coefficients m[0..n].
	m := field.AcquireVec(n + 1)
	defer field.ReleaseVec(m)
	m[0] = 1
	for deg, xi := range xs {
		m[deg+1] = m[deg]
		for j := deg; j >= 1; j-- {
			m[j] = subU(m[j-1], mulU(xi, m[j]))
		}
		m[0] = negU(mulU(xi, m[0]))
	}

	// Denominators d_i = M'(x_i) = prod_{j != i} (x_i - x_j), evaluated
	// for all i at once; a zero denominator means a duplicated x.
	dm := field.AcquireVec(n)
	dens := field.AcquireVec(n)
	defer field.ReleaseVec(dm)
	defer field.ReleaseVec(dens)
	for j := 0; j < n; j++ {
		dm[j] = mulU(uint64(field.New(uint64(j+1))), m[j+1])
	}
	for j := n - 1; j >= 0; j-- {
		field.HornerStepVec(dens, xs, dm[j])
	}
	for i := 0; i < n; i++ {
		if dens[i] == 0 {
			return nil, dupXErr(points)
		}
	}
	field.InvVec(dens, dens)

	// result = sum_i y_i * d_i^-1 * M/(x - x_i), with the quotient from
	// synthetic division reused out of one scratch slice.
	res := field.AcquireVec(n)
	q := field.AcquireVec(n)
	defer field.ReleaseVec(res)
	defer field.ReleaseVec(q)
	for i := 0; i < n; i++ {
		xi := xs[i]
		q[n-1] = m[n]
		for j := n - 2; j >= 0; j-- {
			q[j] = addU(m[j+1], mulU(xi, q[j+1]))
		}
		field.ScalarMulAddVec(res, q, mulU(uint64(points[i].Y), dens[i]))
	}
	out := make(Poly, n)
	field.FromVec(out, res)
	return out.trim(), nil
}

// LagrangeCoeffsAtZero returns the Lagrange recombination coefficients
// lambda_i such that p(0) = sum_i lambda_i * p(x_i) for any polynomial p of
// degree < len(xs). These are the classic Shamir reconstruction weights and
// the BGW degree-reduction weights. X coordinates must be distinct and
// non-zero.
//
// The kernel path reads the numerators prod_{j != i} x_j off prefix and
// suffix products and inverts every denominator with one batch inversion.
func LagrangeCoeffsAtZero(xs []field.Element) ([]field.Element, error) {
	n := len(xs)
	out := make([]field.Element, n)
	if n == 0 {
		return out, nil
	}
	xv := field.AcquireVec(n)
	dens := field.AcquireVec(n)
	pre := field.AcquireVec(n + 1)
	suf := field.AcquireVec(n + 1)
	defer field.ReleaseVec(xv)
	defer field.ReleaseVec(dens)
	defer field.ReleaseVec(pre)
	defer field.ReleaseVec(suf)
	for i, x := range xs {
		xv[i] = uint64(x)
	}
	for i := 0; i < n; i++ {
		d := uint64(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			t := subU(xv[j], xv[i])
			if t == 0 {
				return nil, fmt.Errorf("poly: duplicate x coordinate %v", xs[i])
			}
			d = mulU(d, t)
		}
		dens[i] = d
	}
	field.InvVec(dens, dens)
	pre[0] = 1
	for i := 0; i < n; i++ {
		pre[i+1] = mulU(pre[i], xv[i])
	}
	suf[n] = 1
	for i := n - 1; i >= 0; i-- {
		suf[i] = mulU(suf[i+1], xv[i])
	}
	for i := 0; i < n; i++ {
		out[i] = field.Element(mulU(mulU(pre[i], suf[i+1]), dens[i]))
	}
	return out, nil
}

// Bivariate is a symmetric bivariate polynomial F(x, y) of degree at most t
// in each variable, with F(x, y) = F(y, x). It is the dealing object of the
// BCG-style asynchronous verifiable secret sharing (package avss): the
// dealer hands party i the univariate slice F(i, ·), and any two parties
// can cross-check consistency because F(i, j) = F(j, i).
type Bivariate struct {
	t     int
	coeff []field.Vec // coeff[a][b] of x^a y^b, symmetric, raw limbs
}

// NewBivariate returns a uniformly random symmetric bivariate polynomial of
// degree at most t in each variable with F(0,0) = secret.
func NewBivariate(rng *rand.Rand, t int, secret field.Element) *Bivariate {
	c := make([]field.Vec, t+1)
	backing := make(field.Vec, (t+1)*(t+1))
	for a := range c {
		c[a] = backing[a*(t+1) : (a+1)*(t+1)]
	}
	for a := 0; a <= t; a++ {
		for b := a; b <= t; b++ {
			v := uint64(field.Rand(rng))
			c[a][b] = v
			c[b][a] = v
		}
	}
	c[0][0] = uint64(secret)
	return &Bivariate{t: t, coeff: c}
}

// rowInto accumulates F(x0, ·) into acc (length t+1, zeroed by caller):
// acc[b] = sum_a coeff[a][b] * x0^a, one fused scalar-multiply-add sweep
// per x power.
func (f *Bivariate) rowInto(acc field.Vec, x0 uint64) {
	xp := uint64(1)
	for a := 0; a <= f.t; a++ {
		field.ScalarMulAddVec(acc, f.coeff[a], xp)
		xp = mulU(xp, x0)
	}
}

// Row returns the univariate slice F(x0, ·) as a Poly in y.
func (f *Bivariate) Row(x0 field.Element) Poly {
	acc := field.AcquireVec(f.t + 1)
	defer field.ReleaseVec(acc)
	f.rowInto(acc, uint64(x0))
	out := make(Poly, f.t+1)
	field.FromVec(out, acc)
	return out.trim()
}

// Rows returns the dealing rows F(i+1, ·) for parties i = 0..n-1 in one
// batched pass over a single backing allocation — the amortized form of
// Row that package avss uses to deal all n shares at once.
func (f *Bivariate) Rows(n int) []Poly {
	w := f.t + 1
	backing := make([]field.Element, n*w)
	acc := field.AcquireVec(w)
	defer field.ReleaseVec(acc)
	out := make([]Poly, n)
	for i := 0; i < n; i++ {
		clear(acc)
		f.rowInto(acc, uint64(i+1))
		row := backing[i*w : (i+1)*w]
		field.FromVec(row, acc)
		out[i] = Poly(row).trim()
	}
	return out
}

// Eval evaluates F at (x, y).
func (f *Bivariate) Eval(x, y field.Element) field.Element {
	return f.Row(x).Eval(y)
}

package poly

import (
	"fmt"
	"sync/atomic"

	"asyncmediator/internal/field"
)

// useRef routes Interpolate/EvalAt/LagrangeCoeffsAtZero through the
// original scalar implementations below. The kernel paths are the
// default; the reference paths are the correctness oracle for the
// differential tests, the scalar baseline for the kernel benchmarks, and
// the pre-kernel-swap comparator for the E1-E8 byte-identity test.
var useRef atomic.Bool

// UseReference toggles the scalar reference implementations package-wide.
// Intended for tests and benchmarks only; do not toggle concurrently
// with in-flight protocol work.
func UseReference(on bool) { useRef.Store(on) }

// interpolateRef is the original O(n^3) Lagrange interpolation with one
// field inversion per basis polynomial.
func interpolateRef(points []Point) (Poly, error) {
	n := len(points)
	if n == 0 {
		return nil, nil
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if points[i].X == points[j].X {
				return nil, fmt.Errorf("poly: duplicate x coordinate %v", points[i].X)
			}
		}
	}
	result := Poly(nil)
	for i := 0; i < n; i++ {
		// Build the i-th Lagrange basis polynomial L_i, scaled by y_i.
		basis := New(1)
		denom := field.Element(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			// basis *= (x - x_j)
			basis = basis.Mul(Poly{points[j].X.Neg(), 1})
			denom = denom.Mul(points[i].X.Sub(points[j].X))
		}
		scale := points[i].Y.Div(denom)
		result = result.Add(basis.MulScalar(scale))
	}
	return result, nil
}

// evalAtRef is the original barycentric evaluation with one inversion per
// point.
func evalAtRef(points []Point, x field.Element) (field.Element, error) {
	n := len(points)
	if n == 0 {
		return 0, nil
	}
	var acc field.Element
	for i := 0; i < n; i++ {
		num := field.Element(1)
		den := field.Element(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if points[i].X == points[j].X {
				return 0, fmt.Errorf("poly: duplicate x coordinate %v", points[i].X)
			}
			num = num.Mul(x.Sub(points[j].X))
			den = den.Mul(points[i].X.Sub(points[j].X))
		}
		acc = acc.Add(points[i].Y.Mul(num.Div(den)))
	}
	return acc, nil
}

// lagrangeCoeffsAtZeroRef is the original per-coefficient computation
// with one inversion per weight.
func lagrangeCoeffsAtZeroRef(xs []field.Element) ([]field.Element, error) {
	n := len(xs)
	out := make([]field.Element, n)
	for i := 0; i < n; i++ {
		num := field.Element(1)
		den := field.Element(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if xs[i] == xs[j] {
				return nil, fmt.Errorf("poly: duplicate x coordinate %v", xs[i])
			}
			num = num.Mul(xs[j])            // (0 - x_j) up to sign...
			den = den.Mul(xs[j].Sub(xs[i])) // ...matching sign in denominator
		}
		out[i] = num.Div(den)
	}
	return out, nil
}

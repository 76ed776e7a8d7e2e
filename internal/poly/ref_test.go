package poly

import (
	"fmt"

	"asyncmediator/internal/field"
)

// The scalar reference implementations below are the pre-kernel code,
// kept as the correctness oracle for the differential tests and as the
// scalar baseline of the kernel benchmarks.

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
			next := make(Poly, len(basis)+1)
			for k, c := range basis {
				next[k] = next[k].Sub(c.Mul(points[j].X))
				next[k+1] = next[k+1].Add(c)
			}
			basis = next
			denom = denom.Mul(points[i].X.Sub(points[j].X))
		}
		scale := points[i].Y.Div(denom)
		for k := range basis {
			basis[k] = basis[k].Mul(scale)
		}
		result = result.Add(basis)
	}
	return result, nil
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

package poly

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"asyncmediator/internal/field"
)

func randPoly(rng *rand.Rand, deg int) Poly {
	p := make(Poly, deg+1)
	for i := range p {
		p[i] = field.Rand(rng)
	}
	p[deg] = field.RandNonZero(rng) // exact degree
	return p
}

func randPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	seen := map[field.Element]bool{}
	for i := range pts {
		x := field.Rand(rng)
		for seen[x] {
			x = field.Rand(rng)
		}
		seen[x] = true
		pts[i] = Point{X: x, Y: field.Rand(rng)}
	}
	return pts
}

// TestInterpolateKernelVsRef checks the kernel interpolation against the
// retained scalar reference on random and adversarial point sets,
// demanding identical coefficients and identical errors.
func TestInterpolateKernelVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		name string
		pts  []Point
	}{
		{"empty", nil},
		{"single", randPoints(rng, 1)},
		{"pair", randPoints(rng, 2)},
		{"medium", randPoints(rng, 17)},
		{"large", randPoints(rng, 65)},
		{"zero-ys", func() []Point {
			pts := randPoints(rng, 9)
			for i := range pts {
				pts[i].Y = 0
			}
			return pts
		}()},
		{"duplicate-x-adjacent", []Point{{X: 5, Y: 1}, {X: 5, Y: 2}, {X: 7, Y: 3}}},
		{"duplicate-x-far", []Point{{X: 3, Y: 1}, {X: 9, Y: 2}, {X: 4, Y: 5}, {X: 9, Y: 7}}},
		{"x-zero-included", func() []Point {
			pts := randPoints(rng, 8)
			pts[0].X = 0
			return pts
		}()},
	}
	// The share sets of shamir's TestReconstructRecoversSecret.
	shares := rand.New(rand.NewSource(70))
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {16, 5}, {33, 10}} {
		secret := field.Rand(shares)
		cases = append(cases, struct {
			name string
			pts  []Point
		}{fmt.Sprintf("shamir-n%d-t%d", tc.n, tc.t), sharePoints(Random(shares, tc.t, secret), tc.n)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, gotErr := Interpolate(c.pts)
			want, wantErr := interpolateRef(c.pts)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("error mismatch: kernel=%v ref=%v", gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("error text mismatch: kernel=%q ref=%q", gotErr, wantErr)
				}
				return
			}
			if !got.Equal(want) {
				t.Fatalf("coefficients differ:\nkernel %v\nref    %v", got, want)
			}
			for _, pt := range c.pts {
				if got.Eval(pt.X) != pt.Y {
					t.Fatalf("interpolant misses point (%v, %v)", pt.X, pt.Y)
				}
			}
		})
	}
}

// sharePoints evaluates p at x = 1..n, the evaluation points of a play's
// n players.
func sharePoints(p Poly, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		x := field.Element(i + 1)
		pts[i] = Point{X: x, Y: p.Eval(x)}
	}
	return pts
}

// dropPoints returns pts without missing of them, chosen by rng, keeping
// the order of the rest: the shares of players that never sent.
func dropPoints(rng *rand.Rand, pts []Point, missing int) []Point {
	gone := map[int]bool{}
	for _, i := range rng.Perm(len(pts))[:missing] {
		gone[i] = true
	}
	var out []Point
	for i, pt := range pts {
		if !gone[i] {
			out = append(out, pt)
		}
	}
	return out
}

// sameErr fails t unless the kernel and reference errors are both nil or
// carry the same text, and reports whether they are nil.
func sameErr(t *testing.T, what string, got, want error) bool {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error mismatch: kernel=%v ref=%v", what, got, want)
	}
	return got == nil
}

// TestKernelVsRefProtocolShapes compares the kernels with their oracles on
// the inputs plays produce: shares at x = 1..n of a degree-t or degree-2t
// polynomial, t = (n-1)/3, with up to t shares missing, plus a repeated
// share for the duplicate-x error path.
func TestKernelVsRefProtocolShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{4, 5, 8, 9} {
		tt := (n - 1) / 3
		for _, deg := range []int{tt, 2 * tt} {
			src := randPoly(rng, deg)
			for missing := 0; missing <= tt; missing++ {
				pts := dropPoints(rng, sharePoints(src, n), missing)
				t.Run(fmt.Sprintf("n=%d/deg=%d/missing=%d", n, deg, missing), func(t *testing.T) {
					if got := checkKernelVsRef(t, pts); !got.Equal(src) {
						t.Fatalf("interpolant %v, want %v", got, src)
					}
				})
			}
		}
		dup := append(sharePoints(randPoly(rng, tt), n), Point{X: 2, Y: 7})
		t.Run(fmt.Sprintf("n=%d/duplicate", n), func(t *testing.T) {
			checkKernelVsRef(t, dup)
		})
	}
}

// checkKernelVsRef runs Interpolate and LagrangeCoeffsAtZero on pts against their oracles, and returns the
// interpolant.
func checkKernelVsRef(t *testing.T, pts []Point) Poly {
	t.Helper()
	got, gotErr := Interpolate(pts)
	want, wantErr := interpolateRef(pts)
	if sameErr(t, "Interpolate", gotErr, wantErr) && !got.Equal(want) {
		t.Fatalf("Interpolate coefficients differ:\nkernel %v\nref    %v", got, want)
	}
	xs := make([]field.Element, len(pts))
	for i, pt := range pts {
		xs[i] = pt.X
	}
	gotL, gotErr := LagrangeCoeffsAtZero(xs)
	wantL, wantErr := lagrangeCoeffsAtZeroRef(xs)
	if sameErr(t, "LagrangeCoeffsAtZero", gotErr, wantErr) && !slices.Equal(gotL, wantL) {
		t.Fatalf("LagrangeCoeffsAtZero: kernel %v ref %v", gotL, wantL)
	}
	return got
}

// TestInterpolateMaxDegree pins down the exact-degree case: n points
// defining a polynomial of exact degree n-1.
func TestInterpolateMaxDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src := randPoly(rng, 30)
	pts := make([]Point, 31)
	for i := range pts {
		x := field.Element(i + 1)
		pts[i] = Point{X: x, Y: src.Eval(x)}
	}
	got, err := Interpolate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(src) {
		t.Fatalf("interpolation did not recover the source polynomial")
	}
}

func TestLagrangeCoeffsKernelVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{0, 1, 2, 7, 41} {
		xs := make([]field.Element, n)
		seen := map[field.Element]bool{}
		for i := range xs {
			x := field.RandNonZero(rng)
			for seen[x] {
				x = field.RandNonZero(rng)
			}
			seen[x] = true
			xs[i] = x
		}
		got, gotErr := LagrangeCoeffsAtZero(xs)
		want, wantErr := lagrangeCoeffsAtZeroRef(xs)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("n=%d error mismatch: %v vs %v", n, gotErr, wantErr)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: kernel %v ref %v", n, i, got[i], want[i])
			}
		}
	}
	dup := []field.Element{3, 8, 3}
	_, gotErr := LagrangeCoeffsAtZero(dup)
	_, wantErr := lagrangeCoeffsAtZeroRef(dup)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("duplicate error mismatch: kernel=%v ref=%v", gotErr, wantErr)
	}
}

func TestBivariateRowsVsRow(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	f := NewBivariate(rng, 12, 99)
	rows := f.Rows(20)
	for i, row := range rows {
		want := f.Row(field.Element(i + 1))
		if !row.Equal(want) {
			t.Fatalf("row %d: Rows %v != Row %v", i, row, want)
		}
	}
}

// --- kernel benchmarks -------------------------------------------------

func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(40))
	src := randPoly(rng, n-1)
	pts := make([]Point, n)
	for i := range pts {
		x := field.Element(i + 1)
		pts[i] = Point{X: x, Y: src.Eval(x)}
	}
	return pts
}

func BenchmarkInterpolate(b *testing.B) {
	for _, n := range []int{16, 64} {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("kernel-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Interpolate(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scalar-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := interpolateRef(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLagrangeCoeffs64(b *testing.B) {
	xs := make([]field.Element, 64)
	for i := range xs {
		xs[i] = field.Element(i + 1)
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LagrangeCoeffsAtZero(xs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lagrangeCoeffsAtZeroRef(xs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBivariateRows(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	f := NewBivariate(rng, 16, 5)
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.Rows(64)
		}
	})
	b.Run("per-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				_ = f.Row(field.Element(j + 1))
			}
		}
	})
}

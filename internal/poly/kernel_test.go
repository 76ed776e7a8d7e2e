package poly

import (
	"fmt"
	"math/rand"
	"testing"

	"asyncmediator/internal/field"
)

// withRef runs f with the scalar reference implementations active,
// restoring the kernel path afterwards.
func withRef(f func()) {
	UseReference(true)
	defer UseReference(false)
	f()
}

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
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, gotErr := Interpolate(c.pts)
			var want Poly
			var wantErr error
			withRef(func() { want, wantErr = Interpolate(c.pts) })
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

func TestEvalAtKernelVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{0, 1, 2, 5, 33} {
		pts := randPoints(rng, n)
		x := field.Rand(rng)
		got, gotErr := EvalAt(pts, x)
		var want field.Element
		var wantErr error
		withRef(func() { want, wantErr = EvalAt(pts, x) })
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Fatalf("n=%d: kernel (%v, %v) ref (%v, %v)", n, got, gotErr, want, wantErr)
		}
	}
	// Duplicate-x error parity.
	dup := []Point{{X: 2, Y: 1}, {X: 2, Y: 9}}
	_, gotErr := EvalAt(dup, 5)
	var wantErr error
	withRef(func() { _, wantErr = EvalAt(dup, 5) })
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("duplicate-x error mismatch: kernel=%v ref=%v", gotErr, wantErr)
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
		var want []field.Element
		var wantErr error
		withRef(func() { want, wantErr = LagrangeCoeffsAtZero(xs) })
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
	var wantErr error
	withRef(func() { _, wantErr = LagrangeCoeffsAtZero(dup) })
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("duplicate error mismatch: kernel=%v ref=%v", gotErr, wantErr)
	}
}

func TestEvalManyVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, deg := range []int{-1, 0, 1, 10, 100} {
		var p Poly
		if deg >= 0 {
			p = randPoly(rng, deg)
		}
		xs := make([]field.Element, 37)
		for i := range xs {
			xs[i] = field.Rand(rng)
		}
		got := EvalMany(p, xs)
		for i, x := range xs {
			if want := p.Eval(x); got[i] != want {
				t.Fatalf("deg=%d i=%d: EvalMany=%v Eval=%v", deg, i, got[i], want)
			}
		}
	}
	if out := EvalMany(New(1, 2), nil); len(out) != 0 {
		t.Fatal("EvalMany(nil xs) not empty")
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
			UseReference(true)
			defer UseReference(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Interpolate(pts); err != nil {
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
		UseReference(true)
		defer UseReference(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LagrangeCoeffsAtZero(xs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	p := randPoly(rng, 255)
	q := randPoly(rng, 255)
	b.Run("schoolbook", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.Mul(q)
		}
	})
}

func BenchmarkEvalMany64(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	p := randPoly(rng, 32)
	xs := make([]field.Element, 64)
	for i := range xs {
		xs[i] = field.Element(i + 1)
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = EvalMany(p, xs)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]field.Element, len(xs))
			for j, x := range xs {
				out[j] = p.Eval(x)
			}
			_ = out
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

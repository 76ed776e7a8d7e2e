package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"asyncmediator/internal/field"
)

func TestTrimAndDegree(t *testing.T) {
	tests := []struct {
		p    Poly
		want int
	}{
		{New(), -1},
		{New(0), -1},
		{New(5), 0},
		{New(0, 1), 1},
		{New(1, 2, 0, 0), 1},
		{New(1, 2, 3), 2},
	}
	for _, tt := range tests {
		if got := tt.p.Degree(); got != tt.want {
			t.Errorf("Degree(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x=5: 3 + 10 + 25 = 38.
	p := New(3, 2, 1)
	if got := p.Eval(5); got != 38 {
		t.Errorf("Eval = %v, want 38", got)
	}
	if got := Poly(nil).Eval(7); got != 0 {
		t.Errorf("zero poly Eval = %v, want 0", got)
	}
}

func TestAddSubProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := Random(rng, rng.Intn(6), field.Rand(rng))
		q := Random(rng, rng.Intn(6), field.Rand(rng))
		x := field.Rand(rng)
		if p.Add(q).Eval(x) != p.Eval(x).Add(q.Eval(x)) {
			t.Fatal("Add does not commute with Eval")
		}
		if p.Sub(q).Eval(x) != p.Eval(x).Sub(q.Eval(x)) {
			t.Fatal("Sub does not commute with Eval")
		}
		if !p.Add(q).Sub(q).Equal(p) {
			t.Fatal("Add/Sub round trip failed")
		}
	}
}

func TestRandomConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		s := field.Rand(rng)
		deg := rng.Intn(8)
		p := Random(rng, deg, s)
		if p.Constant() != s {
			t.Fatalf("Random constant = %v, want %v", p.Constant(), s)
		}
		if p.Degree() > deg {
			t.Fatalf("Random degree = %d > %d", p.Degree(), deg)
		}
	}
}

func TestInterpolateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		deg := rng.Intn(6)
		p := Random(rng, deg, field.Rand(rng))
		pts := make([]Point, deg+1)
		for i := range pts {
			x := field.Element(i + 1)
			pts[i] = Point{X: x, Y: p.Eval(x)}
		}
		q, err := Interpolate(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Fatalf("interpolation mismatch: %v vs %v", p, q)
		}
	}
}

func TestInterpolateDuplicateX(t *testing.T) {
	_, err := Interpolate([]Point{{X: 1, Y: 2}, {X: 1, Y: 3}})
	if err == nil {
		t.Fatal("expected error for duplicate x")
	}
}

func TestInterpolateEmpty(t *testing.T) {
	p, err := Interpolate(nil)
	if err != nil || !p.IsZero() {
		t.Fatalf("Interpolate(nil) = %v, %v", p, err)
	}
}

func TestLagrangeCoeffsAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		deg := rng.Intn(5)
		p := Random(rng, deg, field.Rand(rng))
		xs := make([]field.Element, deg+1)
		for i := range xs {
			xs[i] = field.Element(i + 1)
		}
		lambda, err := LagrangeCoeffsAtZero(xs)
		if err != nil {
			t.Fatal(err)
		}
		var acc field.Element
		for i, x := range xs {
			acc = acc.Add(lambda[i].Mul(p.Eval(x)))
		}
		if acc != p.Constant() {
			t.Fatalf("recombination = %v, want %v", acc, p.Constant())
		}
	}
}

func TestLagrangeCoeffsDuplicate(t *testing.T) {
	_, err := LagrangeCoeffsAtZero([]field.Element{1, 1})
	if err == nil {
		t.Fatal("expected error for duplicate xs")
	}
}

func TestBivariateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewBivariate(rng, 3, 42)
	if f.Eval(0, 0) != 42 {
		t.Fatalf("F(0, 0) = %v, want 42", f.Eval(0, 0))
	}
	quickCfg := &quick.Config{MaxCount: 50, Rand: rng}
	prop := func(a, b uint64) bool {
		x, y := field.New(a), field.New(b)
		return f.Eval(x, y) == f.Eval(y, x)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestBivariateRowConsistency(t *testing.T) {
	// Row(i) evaluated at j must equal Row(j) evaluated at i.
	rng := rand.New(rand.NewSource(8))
	f := NewBivariate(rng, 2, 7)
	for i := 1; i <= 5; i++ {
		for j := 1; j <= 5; j++ {
			ri := f.Row(field.Element(i))
			rj := f.Row(field.Element(j))
			if ri.Eval(field.Element(j)) != rj.Eval(field.Element(i)) {
				t.Fatalf("row consistency broken at (%d,%d)", i, j)
			}
		}
	}
}

func TestBivariateRowDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := NewBivariate(rng, 4, 0)
	for i := 1; i <= 3; i++ {
		if d := f.Row(field.Element(i)).Degree(); d > 4 {
			t.Fatalf("row degree %d > 4", d)
		}
	}
}

func TestBivariateRowZeroIsSharePoly(t *testing.T) {
	// F(·, 0) is a degree-t univariate with constant term = secret;
	// party i's share in AVSS is F(i, 0) = Row(i).Eval(0).
	rng := rand.New(rand.NewSource(10))
	secret := field.Element(99)
	f := NewBivariate(rng, 3, secret)
	pts := make([]Point, 4)
	for i := range pts {
		x := field.Element(i + 1)
		pts[i] = Point{X: x, Y: f.Row(x).Eval(0)}
	}
	p, err := Interpolate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Constant() != secret {
		t.Fatalf("reconstructed %v, want %v", p.Constant(), secret)
	}
	if p.Degree() > 3 {
		t.Fatalf("share polynomial degree %d > 3", p.Degree())
	}
}

func TestString(t *testing.T) {
	if s := Poly(nil).String(); s != "0" {
		t.Errorf("zero poly String = %q", s)
	}
	if s := New(3, 2, 1).String(); s != "1*x^2 + 2*x + 3" {
		t.Errorf("String = %q", s)
	}
}

func TestClone(t *testing.T) {
	p := New(1, 2, 3)
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Error("Clone aliases original")
	}
}

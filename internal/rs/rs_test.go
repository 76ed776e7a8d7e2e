package rs

import (
	"errors"
	"math/rand"
	"testing"

	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
)

// sharePoints evaluates p at x = 1..m.

// decode runs one Berlekamp-Welch attempt, the step OEC repeats per error
// budget: the unique polynomial of degree <= deg agreeing with all but at
// most e points.
func decode(points []poly.Point, deg, e int) (poly.Poly, error) {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	return ws.decode(points, deg, e)
}

// countAgreeing returns how many points lie on p, by the syndrome count
// decode verifies with.
func countAgreeing(p poly.Poly, points []poly.Point) int {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	return len(points) - ws.countDisagreeing(p, points)
}

func sharePoints(p poly.Poly, m int) []poly.Point {
	pts := make([]poly.Point, m)
	for i := range pts {
		x := field.Element(i + 1)
		pts[i] = poly.Point{X: x, Y: p.Eval(x)}
	}
	return pts
}

func corrupt(pts []poly.Point, idxs []int, rng *rand.Rand) []poly.Point {
	out := make([]poly.Point, len(pts))
	copy(out, pts)
	for _, i := range idxs {
		out[i].Y = out[i].Y.Add(field.RandNonZero(rng))
	}
	return out
}

func TestDecodeNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for deg := 0; deg <= 4; deg++ {
		p := poly.Random(rng, deg, field.Rand(rng))
		pts := sharePoints(p, deg+3)
		got, err := decode(pts, deg, 0)
		if err != nil {
			t.Fatalf("deg=%d: %v", deg, err)
		}
		if !got.Equal(p) {
			t.Fatalf("deg=%d: decoded %v, want %v", deg, got, p)
		}
	}
}

func TestDecodeWithErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		deg := rng.Intn(4)
		e := 1 + rng.Intn(3)
		m := deg + 1 + 2*e + rng.Intn(3)
		p := poly.Random(rng, deg, field.Rand(rng))
		pts := sharePoints(p, m)
		// Corrupt exactly e distinct positions.
		perm := rng.Perm(m)[:e]
		bad := corrupt(pts, perm, rng)
		got, err := decode(bad, deg, e)
		if err != nil {
			t.Fatalf("trial %d (deg=%d e=%d m=%d): %v", trial, deg, e, m, err)
		}
		if !got.Equal(p) {
			t.Fatalf("trial %d: decoded wrong polynomial", trial)
		}
	}
}

func TestDecodeFewerErrorsThanBudget(t *testing.T) {
	// Allowing e errors must still work when fewer than e actually occur.
	rng := rand.New(rand.NewSource(3))
	deg, e := 2, 2
	p := poly.Random(rng, deg, field.Rand(rng))
	pts := sharePoints(p, deg+1+2*e)
	bad := corrupt(pts, []int{0}, rng) // only 1 error, budget 2
	got, err := decode(bad, deg, e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("decoded wrong polynomial")
	}
}

func TestDecodeInsufficientPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := poly.Random(rng, 2, 5)
	pts := sharePoints(p, 4) // need 2+1+2*1=5 for e=1
	if _, err := decode(pts, 2, 1); !errors.Is(err, ErrDecode) {
		t.Fatalf("expected ErrDecode, got %v", err)
	}
}

func TestDecodeTooManyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	deg, e := 1, 1
	p := poly.Random(rng, deg, field.Rand(rng))
	pts := sharePoints(p, deg+1+2*e)
	// Corrupt e+1 positions: decoding must not return a wrong polynomial
	// that it claims is correct with <= e disagreements.
	bad := corrupt(pts, []int{0, 1}, rng)
	got, err := decode(bad, deg, e)
	if err == nil {
		// If it decodes, the result must genuinely agree with all but e.
		if countAgreeing(got, bad) < len(bad)-e {
			t.Fatal("Decode returned polynomial violating the error bound")
		}
	}
}

func TestDecodeNegativeParams(t *testing.T) {
	if _, err := decode(nil, -1, 0); err == nil {
		t.Fatal("expected error for negative degree")
	}
	if _, err := decode(nil, 0, -1); err == nil {
		t.Fatal("expected error for negative error budget")
	}
}

func TestOECProgressive(t *testing.T) {
	// Feed points one at a time, as an asynchronous receiver would.
	rng := rand.New(rand.NewSource(6))
	deg := 2
	tCorrupt := 2
	n := 13 // n > 4t with t=3... here just a pool of points
	p := poly.Random(rng, deg, field.Rand(rng))
	pts := sharePoints(p, n)
	bad := corrupt(pts, []int{1, 5}, rng)

	var received []poly.Point
	decodedAt := -1
	for i, pt := range bad {
		received = append(received, pt)
		if got, ok := OEC(received, deg, tCorrupt); ok {
			if !got.Equal(p) {
				t.Fatalf("OEC decoded wrong polynomial after %d points", i+1)
			}
			decodedAt = i + 1
			break
		}
	}
	if decodedAt < 0 {
		t.Fatal("OEC never succeeded")
	}
	// Safety threshold: needs at least deg+tCorrupt+1 points.
	if decodedAt < deg+tCorrupt+1 {
		t.Fatalf("OEC succeeded impossibly early at %d points", decodedAt)
	}
}

func TestOECNeverReturnsWrongPolynomial(t *testing.T) {
	// Adversary delivers its corrupt points FIRST (worst-case schedule).
	// OEC must never return a polynomial other than the true one, no
	// matter the prefix at which it fires.
	rng := rand.New(rand.NewSource(11))
	deg, tc := 2, 2
	p := poly.Random(rng, deg, field.Rand(rng))
	pts := sharePoints(p, 9) // n = 9 > deg+2t+1... pool of points
	bad := corrupt(pts, []int{0, 1}, rng)
	var received []poly.Point
	for _, pt := range bad {
		received = append(received, pt)
		if got, ok := OEC(received, deg, tc); ok {
			if !got.Equal(p) {
				t.Fatalf("OEC returned wrong polynomial at m=%d", len(received))
			}
		}
	}
}

func TestOECAllHonest(t *testing.T) {
	// With t=0 the minimal deg+1 clean points decode immediately.
	rng := rand.New(rand.NewSource(7))
	deg := 3
	p := poly.Random(rng, deg, field.Rand(rng))
	pts := sharePoints(p, deg+1)
	got, ok := OEC(pts, deg, 0)
	if !ok || !got.Equal(p) {
		t.Fatal("OEC failed on clean minimal set")
	}
}

func TestOECBelowThreshold(t *testing.T) {
	// Fewer than deg+t+1 points must never decode, even if clean.
	rng := rand.New(rand.NewSource(8))
	deg, tc := 3, 1
	p := poly.Random(rng, deg, field.Rand(rng))
	pts := sharePoints(p, deg+tc) // one short of threshold
	if _, ok := OEC(pts, deg, tc); ok {
		t.Fatal("OEC succeeded below the safety threshold")
	}
}

func TestMPCShapeReconstruction(t *testing.T) {
	// The exact shape used by package mpc with n > 4t: wait for n-t shares,
	// up to t corrupt, degree t. n-t >= t+1+2t always holds for n > 4t.
	rng := rand.New(rand.NewSource(9))
	for _, cfg := range []struct{ n, t int }{{5, 1}, {9, 2}, {13, 3}} {
		secret := field.Rand(rng)
		p := poly.Random(rng, cfg.t, secret)
		pts := sharePoints(p, cfg.n)
		// Adversary corrupts t shares and the scheduler hides t others.
		perm := rng.Perm(cfg.n)
		bad := corrupt(pts, perm[:cfg.t], rng)
		visible := bad[:cfg.n-cfg.t]
		got, ok := OEC(visible, cfg.t, cfg.t)
		if !ok {
			t.Fatalf("n=%d t=%d: OEC failed", cfg.n, cfg.t)
		}
		if got.Constant() != secret {
			t.Fatalf("n=%d t=%d: wrong secret", cfg.n, cfg.t)
		}
	}
}

func TestCountAgreeing(t *testing.T) {
	p := poly.New(1, 1) // 1 + x
	pts := []poly.Point{{X: 1, Y: 2}, {X: 2, Y: 3}, {X: 3, Y: 99}}
	if got := countAgreeing(p, pts); got != 2 {
		t.Fatalf("CountAgreeing = %d, want 2", got)
	}
}

func TestDivideExact(t *testing.T) {
	a := poly.New(2, 3, 1) // (x+1)(x+2)
	b := poly.New(1, 1)    // x+1
	q, r, err := divide(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsZero() {
		t.Fatalf("remainder = %v, want 0", r)
	}
	if !q.Equal(poly.New(2, 1)) {
		t.Fatalf("quotient = %v, want x+2", q)
	}
}

func TestDivideRemainder(t *testing.T) {
	a := poly.New(5, 0, 1) // x^2 + 5
	b := poly.New(1, 1)    // x+1
	q, r, err := divide(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// a = q*b + r, checked at more points than a's degree
	for x := field.Element(0); x < 4; x++ {
		if q.Eval(x).Mul(b.Eval(x)).Add(r.Eval(x)) != a.Eval(x) {
			t.Fatalf("division identity violated at x=%v", x)
		}
	}
}

func TestDivideByZero(t *testing.T) {
	if _, _, err := divide(poly.New(1), nil); err == nil {
		t.Fatal("expected error")
	}
}

func BenchmarkDecodeE2(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	deg, e := 3, 2
	p := poly.Random(rng, deg, field.Rand(rng))
	pts := sharePoints(p, deg+1+2*e)
	bad := corrupt(pts, []int{0, 3}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(bad, deg, e); err != nil {
			b.Fatal(err)
		}
	}
}

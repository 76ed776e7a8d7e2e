package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewReduces(t *testing.T) {
	tests := []struct {
		in   uint64
		want Element
	}{
		{0, 0},
		{1, 1},
		{P - 1, Element(P - 1)},
		{P, 0},
		{P + 5, 5},
		{3 * P, 0},
	}
	for _, tt := range tests {
		if got := New(tt.in); got != tt.want {
			t.Errorf("New(%d) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFromInt64(t *testing.T) {
	tests := []struct {
		in   int64
		want Element
	}{
		{0, 0},
		{5, 5},
		{-1, Element(P - 1)},
		{-int64(P), 0},
		{int64(P) + 2, 2},
		{-int64(P) - 3, Element(P - 3)},
	}
	for _, tt := range tests {
		if got := FromInt64(tt.in); got != tt.want {
			t.Errorf("FromInt64(%d) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		return x.Add(y).Sub(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		return x.Add(y) == y.Add(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		return x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		return x.Mul(y).Mul(z) == x.Mul(y.Mul(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		return x.Mul(y.Add(z)) == x.Mul(y).Add(x.Mul(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeg(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		return x.Add(x.Neg()) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Element(0).Neg() != 0 {
		t.Error("Neg(0) != 0")
	}
}

func TestInv(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		if x == 0 {
			return x.Inv() == 0
		}
		return x.Mul(x.Inv()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiv(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		if y == 0 {
			return x.Div(y) == 0
		}
		return x.Div(y).Mul(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		base Element
		exp  uint64
		want Element
	}{
		{2, 0, 1},
		{2, 1, 2},
		{2, 10, 1024},
		{0, 0, 1},
		{0, 5, 0},
		{3, 4, 81},
	}
	for _, tt := range tests {
		if got := tt.base.Pow(tt.exp); got != tt.want {
			t.Errorf("%v.Pow(%d) = %v, want %v", tt.base, tt.exp, got, tt.want)
		}
	}
}

func TestPowFermat(t *testing.T) {
	// a^(P-1) = 1 for a != 0.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := RandNonZero(rng)
		if a.Pow(P-1) != 1 {
			t.Fatalf("%v^(P-1) != 1", a)
		}
	}
}

func TestSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := Rand(rng)
		sq := a.Square()
		r, ok := a.Square().Sqrt()
		if !ok {
			t.Fatalf("Sqrt(%v) reported non-residue for a square", sq)
		}
		if r.Square() != sq {
			t.Fatalf("Sqrt(%v) = %v but %v^2 = %v", sq, r, r, r.Square())
		}
		// Canonical: smaller of the two roots.
		if r.Neg() < r {
			t.Fatalf("Sqrt returned non-canonical root %v (neg %v smaller)", r, r.Neg())
		}
	}
}

func TestSqrtNonResidue(t *testing.T) {
	// Half the non-zero elements are non-residues; find a few and check.
	rng := rand.New(rand.NewSource(3))
	found := 0
	for i := 0; i < 200 && found < 5; i++ {
		a := RandNonZero(rng)
		if a.Pow((P-1)/2) != 1 { // Euler criterion: non-residue
			if _, ok := a.Sqrt(); ok {
				t.Fatalf("Sqrt(%v) succeeded for a non-residue", a)
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("never sampled a non-residue; RNG broken?")
	}
}

func TestSqrtZero(t *testing.T) {
	r, ok := Element(0).Sqrt()
	if !ok || r != 0 {
		t.Fatalf("Sqrt(0) = %v, %v; want 0, true", r, ok)
	}
}

func TestMulOverflowBoundary(t *testing.T) {
	// Largest operands: (P-1)^2 must reduce correctly.
	a := Element(P - 1)
	got := a.Mul(a)
	// (P-1)^2 = P^2 - 2P + 1 ≡ 1 (mod P)
	if got != 1 {
		t.Fatalf("(P-1)^2 = %v, want 1", got)
	}
}

func TestRandInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if e := Rand(rng); uint64(e) >= P {
			t.Fatalf("Rand out of range: %v", e)
		}
		if e := RandNonZero(rng); e == 0 || uint64(e) >= P {
			t.Fatalf("RandNonZero out of range: %v", e)
		}
		if b := RandBit(rng); b != 0 && b != 1 {
			t.Fatalf("RandBit out of range: %v", b)
		}
	}
}

func TestString(t *testing.T) {
	if Element(42).String() != "42" {
		t.Errorf("String() = %q", Element(42).String())
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := Element(123456789), Element(987654321)
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	x := Element(123456789)
	for i := 0; i < b.N; i++ {
		x = x.Inv().Add(1)
	}
	_ = x
}

package field

import (
	"math/rand"
	"testing"
)

// randVec returns n random canonical limbs.
func randVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = uint64(Rand(rng))
	}
	return v
}

// Lengths exercised by every differential test: empty, tiny, odd, and a
// size large enough to cover unrolled/tail paths.
var vecLens = []int{0, 1, 2, 3, 7, 16, 33, 257}

func TestMulVecBoundaryValues(t *testing.T) {
	// P-1 is the largest canonical limb; products of extremes stress the
	// single-fold reduction bound of the vector multiply.
	ext := Vec{0, 1, 2, P - 2, P - 1}
	for _, x := range ext {
		for _, y := range ext {
			dst := make(Vec, 1)
			ScalarMulVec(dst, Vec{x}, y)
			if want := uint64(Element(x).Mul(Element(y))); dst[0] != want {
				t.Fatalf("ScalarMulVec(%d,%d)=%d want %d", x, y, dst[0], want)
			}
		}
	}
}

func TestScalarMulVecVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range vecLens {
		a := randVec(rng, n)
		c := uint64(Rand(rng))
		dst := make(Vec, n)
		ScalarMulVec(dst, a, c)
		for i := range a {
			if want := uint64(Element(a[i]).Mul(Element(c))); dst[i] != want {
				t.Fatalf("n=%d i=%d: ScalarMulVec=%d scalar=%d", n, i, dst[i], want)
			}
		}
	}
}

func TestScalarMulAddVecVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range vecLens {
		a, d0 := randVec(rng, n), randVec(rng, n)
		c := uint64(Rand(rng))
		dst := append(Vec(nil), d0...)
		ScalarMulAddVec(dst, a, c)
		for i := range a {
			want := uint64(Element(d0[i]).Add(Element(c).Mul(Element(a[i]))))
			if dst[i] != want {
				t.Fatalf("n=%d i=%d: ScalarMulAddVec=%d scalar=%d", n, i, dst[i], want)
			}
		}
	}
}

func TestScalarMulSubVecVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range vecLens {
		a, d0 := randVec(rng, n), randVec(rng, n)
		c := uint64(Rand(rng))
		dst := append(Vec(nil), d0...)
		ScalarMulSubVec(dst, a, c)
		for i := range a {
			want := uint64(Element(d0[i]).Sub(Element(c).Mul(Element(a[i]))))
			if dst[i] != want {
				t.Fatalf("n=%d i=%d: ScalarMulSubVec=%d scalar=%d", n, i, dst[i], want)
			}
		}
	}
}

func TestHornerStepVecVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range vecLens {
		x, a0 := randVec(rng, n), randVec(rng, n)
		c := uint64(Rand(rng))
		acc := append(Vec(nil), a0...)
		HornerStepVec(acc, x, c)
		for i := range x {
			want := uint64(Element(a0[i]).Mul(Element(x[i])).Add(Element(c)))
			if acc[i] != want {
				t.Fatalf("n=%d i=%d: HornerStepVec=%d scalar=%d", n, i, acc[i], want)
			}
		}
	}
}

func TestInvVecVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range vecLens {
		a := randVec(rng, n)
		if n > 2 {
			a[1] = 0 // interior zero must not poison neighbours
			a[n-1] = 0
		}
		dst := make(Vec, n)
		InvVec(dst, a)
		for i := range a {
			if want := uint64(Element(a[i]).Inv()); dst[i] != want {
				t.Fatalf("n=%d i=%d: InvVec(%d)=%d scalar=%d", n, i, a[i], dst[i], want)
			}
		}
	}
}

func TestInvVecInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randVec(rng, 65)
	a[7] = 0
	want := make(Vec, len(a))
	InvVec(want, a)
	InvVec(a, a) // aliased
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("i=%d: in-place InvVec=%d separate=%d", i, a[i], want[i])
		}
	}
}

func TestVecAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, b := randVec(rng, 64), randVec(rng, 64)
	want := append(Vec(nil), b...)
	ScalarMulAddVec(want, a, 12345)
	got := append(Vec(nil), a...)
	ScalarMulAddVec(got, got, 12345) // dst aliases a
	for i := range got {
		if got[i] != uint64(Element(a[i]).Add(Element(12345).Mul(Element(a[i])))) {
			t.Fatalf("i=%d: aliased ScalarMulAddVec=%d", i, got[i])
		}
		if want[i] != uint64(Element(b[i]).Add(Element(12345).Mul(Element(a[i])))) {
			t.Fatalf("i=%d: ScalarMulAddVec=%d", i, want[i])
		}
	}
}

func TestToFromVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	es := make([]Element, 33)
	for i := range es {
		es[i] = Rand(rng)
	}
	v := make(Vec, len(es))
	for i, e := range es {
		v[i] = uint64(e)
	}
	back := FromVec(nil, v)
	for i := range es {
		if back[i] != es[i] {
			t.Fatalf("i=%d: round trip %v != %v", i, back[i], es[i])
		}
	}
	// Reuse path: a large-enough destination must be resliced, not grown.
	big := make([]Element, 100)
	back2 := FromVec(big, v)
	if len(back2) != len(es) || &back2[0] != &big[0] {
		t.Fatal("FromVec did not reuse the provided buffer")
	}
}

func TestAcquireReleaseVec(t *testing.T) {
	v := AcquireVec(40)
	if len(v) != 40 {
		t.Fatalf("AcquireVec length %d", len(v))
	}
	for i := range v {
		if v[i] != 0 {
			t.Fatal("AcquireVec returned non-zero scratch")
		}
		v[i] = 7 // dirty it
	}
	ReleaseVec(v)
	w := AcquireVec(8)
	for i := range w {
		if w[i] != 0 {
			t.Fatal("pooled vector not cleared on reacquire")
		}
	}
	ReleaseVec(w)
}

// --- kernel benchmarks -------------------------------------------------

const benchN = 1024

func benchVecs(b *testing.B) (x, y, z Vec) {
	rng := rand.New(rand.NewSource(42))
	return randVec(rng, benchN), randVec(rng, benchN), make(Vec, benchN)
}

func BenchmarkScalarMulAddVec(b *testing.B) {
	x, _, z := benchVecs(b)
	b.SetBytes(8 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScalarMulAddVec(z, x, 123456789)
	}
}

func BenchmarkInvVec(b *testing.B) {
	x, _, z := benchVecs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InvVec(z, x)
	}
}

func BenchmarkInvScalarLoop(b *testing.B) {
	x, _, z := benchVecs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchN; j++ {
			z[j] = uint64(Element(x[j]).Inv())
		}
	}
}

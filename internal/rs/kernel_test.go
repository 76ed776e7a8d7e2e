package rs

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
)

// makeCodeword samples a random degree-deg polynomial, evaluates it at
// x = 1..m, and corrupts the first nbad points deterministically.
func makeCodeword(rng *rand.Rand, deg, m, nbad int) (poly.Poly, []poly.Point) {
	p := make(poly.Poly, deg+1)
	for i := range p {
		p[i] = field.Rand(rng)
	}
	p[deg] = field.RandNonZero(rng)
	src := poly.Poly(p).Clone()
	pts := make([]poly.Point, m)
	for i := range pts {
		x := field.Element(i + 1)
		pts[i] = poly.Point{X: x, Y: src.Eval(x)}
	}
	for i := 0; i < nbad; i++ {
		pts[i].Y = pts[i].Y.Add(field.RandNonZero(rng))
	}
	return src, pts
}

// TestDecodeKernelVsRef drives the kernel and the reference decoder over a
// grid of degrees, error budgets, and actual corruption counts, demanding
// identical polynomials and identical success/failure.
func TestDecodeKernelVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, deg := range []int{0, 1, 2, 5, 10} {
		for _, e := range []int{0, 1, 2, 4} {
			for _, nbad := range []int{0, 1, 2, 4, 5} {
				m := deg + 1 + 2*e
				if nbad > m {
					continue
				}
				name := fmt.Sprintf("deg=%d/e=%d/bad=%d", deg, e, nbad)
				t.Run(name, func(t *testing.T) {
					_, pts := makeCodeword(rng, deg, m, nbad)
					got, gotErr := Decode(pts, deg, e)
					want, wantErr := decodeRef(pts, deg, e)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("outcome mismatch: kernel=%v ref=%v", gotErr, wantErr)
					}
					if gotErr != nil {
						return
					}
					if !got.Equal(want) {
						t.Fatalf("polynomials differ:\nkernel %v\nref    %v", got, want)
					}
				})
			}
		}
	}
}

// TestDecodeErrorStringsMatchRef pins the validation error text to the
// reference wording.
func TestDecodeErrorStringsMatchRef(t *testing.T) {
	cases := []struct {
		pts    []poly.Point
		deg, e int
	}{
		{nil, -1, 0},
		{nil, 0, -1},
		{[]poly.Point{{X: 1, Y: 1}}, 2, 1},
		{[]poly.Point{{X: 1, Y: 1}, {X: 1, Y: 2}}, 1, 0}, // duplicate x -> interpolate error
	}
	for _, c := range cases {
		_, gotErr := Decode(c.pts, c.deg, c.e)
		_, wantErr := decodeRef(c.pts, c.deg, c.e)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("deg=%d e=%d: outcome mismatch kernel=%v ref=%v", c.deg, c.e, gotErr, wantErr)
		}
		if gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("deg=%d e=%d: error text kernel=%q ref=%q", c.deg, c.e, gotErr, wantErr)
		}
	}
}

// TestOECKernelVsRef replays OEC over growing prefixes of a corrupted
// share stream and checks both paths agree at every prefix.
func TestOECKernelVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	deg, tBad, n := 4, 3, 16
	src, pts := makeCodeword(rng, deg, n, tBad)
	for m := 1; m <= n; m++ {
		prefix := pts[:m]
		got, gotOK := OEC(prefix, deg, tBad)
		want, wantOK := oecRef(prefix, deg, tBad)
		if gotOK != wantOK {
			t.Fatalf("m=%d: kernel ok=%v ref ok=%v", m, gotOK, wantOK)
		}
		if gotOK {
			if !got.Equal(want) {
				t.Fatalf("m=%d: polynomials differ", m)
			}
			if !got.Equal(src) {
				t.Fatalf("m=%d: OEC returned wrong polynomial", m)
			}
		}
	}
}

// TestOECKernelVsRefRobustShares replays the share sets of shamir's
// TestRobustReconstructRecoversSecret, corruption and all, through both
// OEC paths.
func TestOECKernelVsRefRobustShares(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(20)
		tDeg := rng.Intn(n / 3)
		maxBad := rng.Intn(tDeg + 2)
		secret := field.Rand(rng)
		pts := sharePoints(poly.Random(rng, tDeg, secret), n)
		nbad := rng.Intn(maxBad + 1)
		perm := rng.Perm(n)
		for i := 0; i < nbad; i++ {
			pts[perm[i]].Y = pts[perm[i]].Y.Add(field.RandNonZero(rng))
		}
		got, gotOK := OEC(pts, tDeg, maxBad)
		want, wantOK := oecRef(pts, tDeg, maxBad)
		if gotOK != wantOK || !got.Equal(want) {
			t.Fatalf("trial %d (n=%d t=%d bad=%d/%d): kernel (%v, %v) ref (%v, %v)",
				trial, n, tDeg, nbad, maxBad, got, gotOK, want, wantOK)
		}
	}
}

// TestKernelVsRefProtocolShapes compares Decode and OEC with their oracles
// on the inputs plays produce: shares at x = 1..n of a degree-t or
// degree-2t polynomial, t = (n-1)/3, with up to t shares missing and 0 up
// to t (the OEC budget) of the rest corrupted.
func TestKernelVsRefProtocolShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{4, 5, 8, 9} {
		tt := (n - 1) / 3
		for _, deg := range []int{tt, 2 * tt} {
			for missing := 0; missing <= tt; missing++ {
				for nbad := 0; nbad <= tt; nbad++ {
					src := poly.Random(rng, deg, field.Rand(rng))
					var pts []poly.Point
					for i, j := range rng.Perm(n)[missing:] {
						x := field.Element(j + 1)
						pts = append(pts, poly.Point{X: x, Y: src.Eval(x)})
						if i < nbad {
							pts[i].Y = pts[i].Y.Add(field.RandNonZero(rng))
						}
					}
					t.Run(fmt.Sprintf("n=%d/deg=%d/missing=%d/bad=%d", n, deg, missing, nbad), func(t *testing.T) {
						got, gotOK := OEC(pts, deg, tt)
						want, wantOK := oecRef(pts, deg, tt)
						if gotOK != wantOK || !got.Equal(want) {
							t.Fatalf("OEC: kernel (%v, %v) ref (%v, %v)", got, gotOK, want, wantOK)
						}
						if len(pts)-nbad >= deg+tt+1 && (!gotOK || !got.Equal(src)) {
							t.Fatalf("OEC missed the source polynomial with %d agreeing points", len(pts)-nbad)
						}
						for e := 0; e <= tt; e++ {
							got, gotErr := Decode(pts, deg, e)
							want, wantErr := decodeRef(pts, deg, e)
							if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
								t.Fatalf("Decode e=%d: error mismatch: kernel=%v ref=%v", e, gotErr, wantErr)
							}
							if !got.Equal(want) {
								t.Fatalf("Decode e=%d: kernel %v ref %v", e, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestCountAgreeingVsScalar checks the vectorized syndrome count.
func TestCountAgreeingVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	src, pts := makeCodeword(rng, 6, 20, 7)
	want := 0
	for _, pt := range pts {
		if src.Eval(pt.X) == pt.Y {
			want++
		}
	}
	if got := CountAgreeing(src, pts); got != want {
		t.Fatalf("CountAgreeing=%d scalar=%d", got, want)
	}
	// Zero polynomial edge case.
	zpts := []poly.Point{{X: 1, Y: 0}, {X: 2, Y: 5}}
	if got := CountAgreeing(nil, zpts); got != 1 {
		t.Fatalf("CountAgreeing(zero poly)=%d want 1", got)
	}
}

// FuzzRSDecodeRoundTrip encodes a fuzzer-chosen polynomial, corrupts at
// most e points at fuzzer-chosen positions, and requires Decode to return
// exactly the original polynomial — and to agree with the scalar
// reference decoder.
func FuzzRSDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{2, 1, 0}, uint64(12345))
	f.Add([]byte{0, 0, 0}, uint64(0))
	f.Add([]byte{5, 3, 0xff, 1, 2, 3, 4, 5}, uint64(987654321))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 3 {
			return
		}
		deg := int(data[0] % 8)
		e := int(data[1] % 4)
		corruptMask := data[2]
		data = data[3:]
		m := deg + 1 + 2*e

		rng := rand.New(rand.NewSource(int64(seed)))
		src := make(poly.Poly, deg+1)
		for i := range src {
			if len(data) >= 8 {
				src[i] = field.New(binary.LittleEndian.Uint64(data))
				data = data[8:]
			} else {
				src[i] = field.Rand(rng)
			}
		}
		src = poly.New(src...)

		pts := make([]poly.Point, m)
		for i := range pts {
			x := field.Element(i + 1)
			pts[i] = poly.Point{X: x, Y: src.Eval(x)}
		}
		// Corrupt at most e points, positions chosen by the mask bits.
		bad := 0
		for i := 0; i < m && bad < e; i++ {
			if corruptMask&(1<<(i%8)) != 0 {
				pts[i].Y = pts[i].Y.Add(field.RandNonZero(rng))
				bad++
			}
		}

		got, err := Decode(pts, deg, e)
		if err != nil {
			t.Fatalf("decode failed (deg=%d e=%d bad=%d): %v", deg, e, bad, err)
		}
		if !got.Equal(src) {
			t.Fatalf("round trip mismatch (deg=%d e=%d bad=%d):\nsrc %v\ngot %v",
				deg, e, bad, src, got)
		}
		ref, refErr := decodeRef(pts, deg, e)
		if refErr != nil || !ref.Equal(got) {
			t.Fatalf("kernel/reference divergence: kernel=%v ref=%v (%v)", got, ref, refErr)
		}
	})
}

// --- kernel benchmarks -------------------------------------------------

func benchStream(deg, tBad, n int) []poly.Point {
	rng := rand.New(rand.NewSource(60))
	_, pts := makeCodeword(rng, deg, n, tBad)
	return pts
}

// BenchmarkDecodeClean is the dominant OEC shape: no corrupted shares,
// so decoding is one interpolation plus a full agreement check. This is
// the path every successful reconstruction takes first.
func BenchmarkDecodeClean(b *testing.B) {
	pts := benchStream(32, 0, 80)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Decode(pts, 32, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := decodeRef(pts, 32, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeE4(b *testing.B) {
	pts := benchStream(8, 4, 8+1+2*4)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Decode(pts, 8, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := decodeRef(pts, 8, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOEC(b *testing.B) {
	// n=32-party shape: degree 2t product sharing, t corrupt shares.
	deg, tBad := 14, 7
	pts := benchStream(deg, tBad, 32)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := OEC(pts, deg, tBad); !ok {
				b.Fatal("OEC failed")
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := oecRef(pts, deg, tBad); !ok {
				b.Fatal("OEC failed")
			}
		}
	})
}

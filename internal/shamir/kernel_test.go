package shamir

import (
	"math/rand"
	"testing"

	"asyncmediator/internal/field"
)

// TestReconstructRecoversSecret reconstructs full share sets at several
// (n, t). The poly differential tables compare the kernel interpolation
// on these share sets against the scalar reference.
func TestReconstructRecoversSecret(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {16, 5}, {33, 10}} {
		secret := field.Rand(rng)
		shares, err := Split(rng, secret, tc.n, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reconstruct(shares, tc.t)
		if err != nil {
			t.Fatalf("n=%d t=%d: %v", tc.n, tc.t, err)
		}
		if got != secret {
			t.Fatalf("n=%d t=%d: reconstructed %v want %v", tc.n, tc.t, got, secret)
		}
	}
}

// TestRobustReconstructRecoversSecret corrupts up to maxBad shares in
// every pattern the rng produces and demands the secret back whenever the
// honest shares reach the deg+maxBad+1 agreement threshold. The rs
// differential tables compare OEC on these share sets against the scalar
// reference.
func TestRobustReconstructRecoversSecret(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(20)
		tDeg := rng.Intn(n / 3)
		maxBad := rng.Intn(tDeg + 2)
		secret := field.Rand(rng)
		shares, err := Split(rng, secret, n, tDeg)
		if err != nil {
			t.Fatal(err)
		}
		nbad := rng.Intn(maxBad + 1)
		perm := rng.Perm(n)
		for i := 0; i < nbad; i++ {
			shares[perm[i]].Y = shares[perm[i]].Y.Add(field.RandNonZero(rng))
		}
		got, err := RobustReconstruct(shares, tDeg, maxBad)
		if len(shares)-nbad < tDeg+maxBad+1 {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d (n=%d t=%d bad=%d/%d): %v", trial, n, tDeg, nbad, maxBad, err)
		}
		if got != secret {
			t.Fatalf("trial %d: reconstructed %v want %v", trial, got, secret)
		}
	}
}

// --- kernel benchmarks -------------------------------------------------

func benchShares(b *testing.B, n, t, nbad int) []Share {
	rng := rand.New(rand.NewSource(80))
	shares, err := Split(rng, 424242, n, t)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nbad; i++ {
		shares[i].Y = shares[i].Y.Add(1)
	}
	return shares
}

func BenchmarkReconstruct32(b *testing.B) {
	shares := benchShares(b, 32, 10, 0)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Reconstruct(shares, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRobustReconstruct32(b *testing.B) {
	shares := benchShares(b, 32, 7, 7)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RobustReconstruct(shares, 7, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

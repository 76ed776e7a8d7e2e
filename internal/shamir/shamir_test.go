package shamir

import (
	"math/rand"
	"testing"

	"asyncmediator/internal/field"
)

func TestSplitReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct{ n, th int }{{3, 1}, {5, 2}, {7, 3}, {10, 0}} {
		secret := field.Rand(rng)
		shares, err := Split(rng, secret, cfg.n, cfg.th)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reconstruct(shares[:cfg.th+1], cfg.th)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Fatalf("n=%d t=%d: got %v, want %v", cfg.n, cfg.th, got, secret)
		}
	}
}

func TestReconstructAnySubset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	secret := field.Element(12345)
	shares, err := Split(rng, secret, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every 3-subset of 7 shares reconstructs.
	for a := 0; a < 7; a++ {
		for b := a + 1; b < 7; b++ {
			for c := b + 1; c < 7; c++ {
				got, err := Reconstruct([]Share{shares[a], shares[b], shares[c]}, 2)
				if err != nil {
					t.Fatal(err)
				}
				if got != secret {
					t.Fatalf("subset {%d,%d,%d}: got %v", a, b, c, got)
				}
			}
		}
	}
}

func TestSplitInvalidParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := Split(rng, 1, 2, 2); err == nil {
		t.Error("n <= t should fail")
	}
	if _, err := Split(rng, 1, 2, -1); err == nil {
		t.Error("negative t should fail")
	}
}

func TestReconstructTooFew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shares, _ := Split(rng, 7, 5, 2)
	if _, err := Reconstruct(shares[:2], 2); err == nil {
		t.Error("expected error with t shares")
	}
}

func TestReconstructDetectsInconsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shares, _ := Split(rng, 7, 5, 1)
	shares[2].Y = shares[2].Y.Add(1)
	// 4 shares of a degree-1 polynomial with one corrupted: interpolation
	// yields degree 3 > 1, detected.
	if _, err := Reconstruct(shares[:4], 1); err == nil {
		t.Error("expected inconsistency detection")
	}
}

func TestRobustReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, cfg := range []struct{ n, th, bad int }{{5, 1, 1}, {9, 2, 2}, {13, 3, 3}} {
		secret := field.Rand(rng)
		shares, err := Split(rng, secret, cfg.n, cfg.th)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.bad; i++ {
			shares[i].Y = shares[i].Y.Add(field.RandNonZero(rng))
		}
		got, err := RobustReconstruct(shares, cfg.th, cfg.bad)
		if err != nil {
			t.Fatalf("n=%d: %v", cfg.n, err)
		}
		if got != secret {
			t.Fatalf("n=%d: got %v, want %v", cfg.n, got, secret)
		}
	}
}

func TestRobustReconstructTooFew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shares, _ := Split(rng, 7, 4, 1)
	// 2 shares, threshold 1, 1 possibly bad: below the t+bad+1=3 threshold.
	if _, err := RobustReconstruct(shares[:2], 1, 1); err == nil {
		t.Error("expected failure below safety threshold")
	}
}

func TestSecrecyPerfect(t *testing.T) {
	// With t shares fixed, every secret is equally consistent: verify that
	// for any t shares there exists a polynomial matching any candidate
	// secret (statistical check on a few candidates).
	rng := rand.New(rand.NewSource(8))
	secret := field.Element(42)
	shares, _ := Split(rng, secret, 5, 2)
	view := shares[:2] // adversary's view: 2 shares, threshold 2
	for _, candidate := range []field.Element{0, 1, 42, 99999} {
		// Interpolate through the view plus (0, candidate): always succeeds
		// with degree <= 2, so the view is consistent with every secret.
		pts := []Share{{X: 0, Y: candidate}, view[0], view[1]}
		if _, err := Reconstruct(pts, 2); err != nil {
			t.Fatalf("view inconsistent with candidate %v: %v", candidate, err)
		}
	}
}

func TestLinearOps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s1, s2 := field.Element(100), field.Element(23)
	sh1, _ := Split(rng, s1, 5, 2)
	sh2, _ := Split(rng, s2, 5, 2)

	sum := make([]Share, 5)
	diff := make([]Share, 5)
	scaled := make([]Share, 5)
	shifted := make([]Share, 5)
	// Sharing is linear: combining shares point by point (as mpc does on
	// its wires) shares the combined secret.
	for i := 0; i < 5; i++ {
		x, a, b := sh1[i].X, sh1[i].Y, sh2[i].Y
		sum[i] = Share{X: x, Y: a.Add(b)}
		diff[i] = Share{X: x, Y: a.Sub(b)}
		scaled[i] = Share{X: x, Y: a.Mul(3)}
		shifted[i] = Share{X: x, Y: a.Add(7)}
	}
	check := func(shares []Share, want field.Element) {
		t.Helper()
		got, err := Reconstruct(shares[:3], 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	check(sum, 123)
	check(diff, 77)
	check(scaled, 300)
	check(shifted, 107)
}

func TestMulLocalDoublesDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s1, s2 := field.Element(6), field.Element(7)
	n, th := 9, 2
	sh1, _ := Split(rng, s1, n, th)
	sh2, _ := Split(rng, s2, n, th)
	prod := make([]Share, n)
	for i := range prod {
		prod[i] = Share{X: sh1[i].X, Y: sh1[i].Y.Mul(sh2[i].Y)}
	}
	// Product is a degree-2t sharing: reconstruct with threshold 2t.
	got, err := Reconstruct(prod[:2*th+1], 2*th)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v, want 42", got)
	}
	// And generally NOT with threshold t.
	if _, err := Reconstruct(prod[:th+1], th); err == nil {
		// Extremely unlikely (would require the random product poly to have
		// degree <= t); treat as suspicious.
		t.Log("product sharing accidentally had low degree (very unlikely)")
	}
}

func TestXOf(t *testing.T) {
	if XOf(0) != 1 || XOf(4) != 5 {
		t.Error("XOf must be index+1")
	}
}

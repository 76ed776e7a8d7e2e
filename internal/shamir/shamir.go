// Package shamir implements Shamir threshold secret sharing over
// GF(2^31-1), with both crash-tolerant and Byzantine-robust reconstruction.
//
// Party i (0-indexed) always holds the share at evaluation point x = i+1;
// x = 0 is reserved for the secret. This convention is shared by packages
// avss and mpc.
package shamir

import (
	"fmt"

	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/rs"
)

// Share is one party's share of a secret.
type Share struct {
	X field.Element // evaluation point (party index + 1)
	Y field.Element // polynomial value
}

// XOf returns the canonical evaluation point of party i.
func XOf(i int) field.Element { return field.Element(i + 1) }

// Split shares secret among n parties with threshold t: any t+1 shares
// reconstruct, any t shares reveal nothing. Requires 0 <= t < n and n < P.
func Split(rng field.Source, secret field.Element, n, t int) ([]Share, error) {
	if t < 0 || n <= t {
		return nil, fmt.Errorf("shamir: invalid parameters n=%d t=%d", n, t)
	}
	if uint64(n) >= field.P {
		return nil, fmt.Errorf("shamir: n=%d too large for field", n)
	}
	p := poly.Random(rng, t, secret)
	shares := make([]Share, n)
	for i := range shares {
		x := XOf(i)
		shares[i] = Share{X: x, Y: p.Eval(x)}
	}
	return shares, nil
}

// Reconstruct recovers the secret from shares assuming all of them are
// correct (crash faults only). It requires at least t+1 shares with
// distinct X and verifies that the interpolated polynomial has degree <= t;
// inconsistent share sets yield an error.
func Reconstruct(shares []Share, t int) (field.Element, error) {
	if len(shares) < t+1 {
		return 0, fmt.Errorf("shamir: need %d shares, have %d", t+1, len(shares))
	}
	pts := toPoints(shares)
	p, err := poly.Interpolate(pts)
	if err != nil {
		return 0, fmt.Errorf("shamir: %w", err)
	}
	if p.Degree() > t {
		return 0, fmt.Errorf("shamir: shares inconsistent with degree-%d polynomial", t)
	}
	return p.Constant(), nil
}

// RobustReconstruct recovers the secret when up to maxBad of the shares may
// be arbitrarily corrupted, using Reed-Solomon decoding. It succeeds iff
// the honest shares determine a unique degree-t polynomial, which requires
// len(shares) >= t + maxBad + 1 agreeing points (see package rs).
func RobustReconstruct(shares []Share, t, maxBad int) (field.Element, error) {
	pts := toPoints(shares)
	p, ok := rs.OEC(pts, t, maxBad)
	if !ok {
		return 0, fmt.Errorf("shamir: robust reconstruction failed (m=%d t=%d bad<=%d): %w",
			len(shares), t, maxBad, rs.ErrDecode)
	}
	return p.Constant(), nil
}

func toPoints(shares []Share) []poly.Point {
	pts := make([]poly.Point, len(shares))
	for i, s := range shares {
		pts[i] = poly.Point{X: s.X, Y: s.Y}
	}
	return pts
}

// Package field implements arithmetic in the prime field GF(p) with
// p = 2^31 - 1 (the eighth Mersenne prime).
//
// All of the secret-sharing, Reed-Solomon and circuit machinery in this
// repository works over this field. The modulus is chosen so that the
// product of two reduced elements fits comfortably in a uint64, which keeps
// multiplication branch-free and allocation-free, and so that p ≡ 3 (mod 4),
// which makes square roots a single exponentiation (used by the shared
// random-bit protocol in package mpc).
package field

import (
	"fmt"
	"math/rand"
)

// P is the field modulus, the Mersenne prime 2^31 - 1.
const P uint64 = (1 << 31) - 1

// Element is a field element in the range [0, P).
//
// The zero value is the additive identity and is ready to use.
type Element uint64

// New reduces v modulo P and returns it as an Element.
func New(v uint64) Element {
	return Element(v % P)
}

// FromInt64 maps a (possibly negative) integer into the field.
func FromInt64(v int64) Element {
	m := v % int64(P)
	if m < 0 {
		m += int64(P)
	}
	return Element(m)
}

// Uint64 returns the canonical representative of e in [0, P).
func (e Element) Uint64() uint64 { return uint64(e) }

// Int64 returns the canonical representative of e as an int64.
// It is always non-negative and less than P.
func (e Element) Int64() int64 { return int64(e) }

// String implements fmt.Stringer.
func (e Element) String() string { return fmt.Sprintf("%d", uint64(e)) }

// Add returns e + b (mod P).
func (e Element) Add(b Element) Element {
	s := uint64(e) + uint64(b)
	if s >= P {
		s -= P
	}
	return Element(s)
}

// Sub returns e - b (mod P).
func (e Element) Sub(b Element) Element {
	if e >= b {
		return e - b
	}
	return e + Element(P) - b
}

// Neg returns -e (mod P).
func (e Element) Neg() Element {
	if e == 0 {
		return 0
	}
	return Element(P) - e
}

// Mul returns e * b (mod P), using fast Mersenne reduction.
func (e Element) Mul(b Element) Element {
	prod := uint64(e) * uint64(b) // < 2^62, no overflow
	// Mersenne reduction: x = (x >> 31) + (x & P)  (mod 2^31 - 1).
	prod = (prod >> 31) + (prod & P)
	if prod >= P {
		prod -= P
	}
	return Element(prod)
}

// Square returns e * e (mod P).
func (e Element) Square() Element { return e.Mul(e) }

// Pow returns e^k (mod P) by binary exponentiation. Pow(0) is 1, including
// for e = 0 (the empty product convention).
func (e Element) Pow(k uint64) Element {
	result := Element(1)
	base := e
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Square()
		k >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of e via Fermat's little theorem.
// Inv of zero is zero (callers that care must check for zero first).
func (e Element) Inv() Element {
	if e == 0 {
		return 0
	}
	return e.Pow(P - 2)
}

// Div returns e / b (mod P). Division by zero yields zero.
func (e Element) Div(b Element) Element { return e.Mul(b.Inv()) }

// Sqrt returns a square root of e and true if e is a quadratic residue
// (or zero), and 0, false otherwise. Because P ≡ 3 (mod 4) the candidate
// root is e^((P+1)/4). The returned root is canonical: the smaller of the
// two roots, so that all parties computing Sqrt locally agree.
func (e Element) Sqrt() (Element, bool) {
	if e == 0 {
		return 0, true
	}
	r := e.Pow((P + 1) / 4)
	if r.Square() != e {
		return 0, false
	}
	other := r.Neg()
	if other < r {
		r = other
	}
	return r, true
}

// Rand returns a uniformly distributed field element drawn from rng.
func Rand(rng *rand.Rand) Element {
	// Int63n is uniform over [0, P); P fits in an int64.
	return Element(rng.Int63n(int64(P)))
}

// RandNonZero returns a uniformly distributed non-zero field element.
func RandNonZero(rng *rand.Rand) Element {
	return Element(rng.Int63n(int64(P)-1) + 1)
}

// RandBit returns 0 or 1, each with probability 1/2.
func RandBit(rng *rand.Rand) Element {
	return Element(rng.Int63() & 1)
}

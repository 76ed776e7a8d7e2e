package field

import "sync"

// Vec is a batch of field elements held as raw uint64 limbs in [0, P).
//
// The Vec kernels below are the batched counterpart of the scalar Element
// API: tight branch-free loops over []uint64 slices with the Mersenne-31
// reduction inlined, in the style of lattice-crypto ring packages. They
// are the hot core under Reed-Solomon decoding (package rs), Lagrange
// interpolation (package poly), bivariate dealing (package avss) and MPC
// degree reduction (package mpc). The scalar Element methods remain the
// reference implementation; differential tests and the FuzzVecVsScalar
// target check every kernel against them.
//
// All inputs must already be reduced to [0, P); all outputs are canonical.
// Destination slices may alias their sources element-for-element (dst[i]
// only ever depends on a[i]/b[i]).
type Vec = []uint64

// csub returns x mod P for x in [0, 2P), branch-free: subtract P and add
// it back masked by the sign of the difference.
func csub(x uint64) uint64 {
	d := x - P
	return d + (P & uint64(int64(d)>>63))
}

// mulRed returns a*b mod P for canonical a, b. The product is < 2^62, so
// one fold (x>>31 + x&P) lands in [0, 2P) and a conditional subtract
// finishes the job.
func mulRed(a, b uint64) uint64 {
	p := a * b
	return csub((p >> 31) + (p & P))
}

// ScalarMulVec sets dst[i] = c * a[i] (mod P).
func ScalarMulVec(dst, a Vec, c uint64) {
	dst = dst[:len(a)]
	for i := range a {
		dst[i] = mulRed(a[i], c)
	}
}

// ScalarMulAddVec sets dst[i] = dst[i] + c*a[i] (mod P). This is the
// workhorse of batched Lagrange accumulation and bivariate row evaluation.
func ScalarMulAddVec(dst, a Vec, c uint64) {
	dst = dst[:len(a)]
	for i := range a {
		p := c * a[i]
		x := dst[i] + (p >> 31) + (p & P)
		dst[i] = csub((x >> 31) + (x & P))
	}
}

// ScalarMulSubVec sets dst[i] = dst[i] - c*a[i] (mod P) — the Gaussian
// elimination row operation (row -= factor * pivotRow).
func ScalarMulSubVec(dst, a Vec, c uint64) {
	const twoP = 2 * P
	dst = dst[:len(a)]
	for i := range a {
		p := c * a[i]
		s := (p >> 31) + (p & P) // <= 2P-1
		x := dst[i] + twoP - s   // <= 3P-2, > 0
		dst[i] = csub((x >> 31) + (x & P))
	}
}

// HornerStepVec performs one vectorized Horner step across many
// evaluation points: acc[i] = acc[i]*x[i] + c (mod P). Folding a
// polynomial's coefficients high-to-low through this kernel evaluates it
// at every x simultaneously.
func HornerStepVec(acc, x Vec, c uint64) {
	acc = acc[:len(x)]
	for i := range x {
		p := acc[i] * x[i]
		s := (p >> 31) + (p & P) // <= 2P-1
		x2 := s + c              // <= 3P-2
		acc[i] = csub((x2 >> 31) + (x2 & P))
	}
}

// InvVec sets dst[i] = a[i]^-1 (mod P) using Montgomery's batch-inversion
// trick: one field inversion plus 3n multiplications, instead of n
// inversions. Zero elements invert to zero, matching Element.Inv.
// dst and a may be the same slice.
func InvVec(dst, a Vec) {
	n := len(a)
	if n == 0 {
		return
	}
	dst = dst[:n]
	pre := AcquireVec(n)
	defer ReleaseVec(pre)
	// Prefix products, substituting 1 for zeros so the chain stays
	// invertible.
	run := uint64(1)
	for i, v := range a {
		if v != 0 {
			run = mulRed(run, v)
		}
		pre[i] = run
	}
	inv := uint64(Element(run).Inv())
	for i := n - 1; i >= 0; i-- {
		v := a[i]
		if v == 0 {
			dst[i] = 0
			continue
		}
		if i == 0 {
			dst[i] = inv
			continue
		}
		// pre[i-1] is the zero-skipped product of a[0..i-1] and inv the
		// inverse of the zero-skipped product of a[0..i], so the product
		// is exactly 1/a[i]; then peel a[i] off the running inverse.
		dst[i] = mulRed(inv, pre[i-1])
		inv = mulRed(inv, v)
	}
}

// FromVec copies src into dst as Elements, growing dst if needed, and
// returns it.
func FromVec(dst []Element, src Vec) []Element {
	if cap(dst) < len(src) {
		dst = make([]Element, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = Element(v)
	}
	return dst
}

// vecPool recycles kernel scratch buffers. The protocol layers (rs
// decoding, poly interpolation, avss dealing) borrow short-lived slices
// on every message; pooling them keeps the per-play garbage flat across
// concurrent sessions.
var vecPool = sync.Pool{New: func() any { s := make(Vec, 0, 64); return &s }}

// AcquireVec returns a zeroed scratch vector of length n from the shared
// pool. Release it with ReleaseVec when done; do not retain references.
func AcquireVec(n int) Vec {
	sp := vecPool.Get().(*Vec)
	s := *sp
	if cap(s) < n {
		*sp = nil
		vecPool.Put(sp)
		return make(Vec, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ReleaseVec returns a vector obtained from AcquireVec to the pool.
func ReleaseVec(s Vec) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	vecPool.Put(&s)
}

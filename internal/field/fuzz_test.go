package field

import (
	"encoding/binary"
	"testing"
)

// FuzzVecVsScalar differentially fuzzes every Vec kernel against the
// scalar Element reference. The input bytes are split into two canonical
// limb vectors plus a scalar; any divergence between a kernel and the
// per-element scalar computation fails.
func FuzzVecVsScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode: first 8 bytes scalar c, rest split into two halves a, b.
		var c uint64
		if len(data) >= 8 {
			c = binary.LittleEndian.Uint64(data) % P
			data = data[8:]
		}
		n := len(data) / 16
		a := make(Vec, n)
		b := make(Vec, n)
		for i := 0; i < n; i++ {
			a[i] = binary.LittleEndian.Uint64(data[16*i:]) % P
			b[i] = binary.LittleEndian.Uint64(data[16*i+8:]) % P
		}

		check := func(name string, got, want uint64, i int) {
			if got != want {
				t.Fatalf("%s[%d](a=%d b=%d c=%d): kernel=%d scalar=%d",
					name, i, a[min(i, n-1)], b[min(i, n-1)], c, got, want)
			}
		}

		dst := make(Vec, n)
		ScalarMulVec(dst, a, c)
		for i := range a {
			check("ScalarMulVec", dst[i], uint64(Element(c).Mul(Element(a[i]))), i)
		}
		copy(dst, b)
		ScalarMulAddVec(dst, a, c)
		for i := range a {
			check("ScalarMulAddVec", dst[i],
				uint64(Element(b[i]).Add(Element(c).Mul(Element(a[i])))), i)
		}
		copy(dst, b)
		ScalarMulSubVec(dst, a, c)
		for i := range a {
			check("ScalarMulSubVec", dst[i],
				uint64(Element(b[i]).Sub(Element(c).Mul(Element(a[i])))), i)
		}
		copy(dst, b)
		HornerStepVec(dst, a, c)
		for i := range a {
			check("HornerStepVec", dst[i],
				uint64(Element(b[i]).Mul(Element(a[i])).Add(Element(c))), i)
		}
		InvVec(dst, a)
		for i := range a {
			check("InvVec", dst[i], uint64(Element(a[i]).Inv()), i)
		}
	})
}

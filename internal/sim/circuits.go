package sim

import (
	"asyncmediator/internal/circuit"
)

// buildMultiBit builds a lottery circuit with `bits` random-bit gates in
// which only the first bit determines the recommendation: everyone gets
// bit_1. The rest just inflate the gate count c for the O(nNc) sweep
// (their outputs are mixed in with weight 0, so outcomes stay comparable).
func buildMultiBit(n, bits int) (*circuit.Circuit, error) {
	b := circuit.NewBuilder(n)
	first := b.RandBit()
	acc := first
	for i := 1; i < bits; i++ {
		extra := b.RandBit()
		zero := b.MulConst(extra, 0)
		acc = b.Add(acc, zero)
	}
	for p := 0; p < n; p++ {
		b.Output(p, acc)
	}
	return b.Build()
}

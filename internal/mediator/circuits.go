package mediator

import (
	"fmt"

	"asyncmediator/internal/circuit"
	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/poly"
)

// SelectCircuit builds the mediator decision circuit that ignores inputs
// and recommends, uniformly at random, one row of the given action-profile
// table (len(table) must be a power of two; row r lists one action per
// player). This is the standard correlated-equilibrium mediator.
func SelectCircuit(n int, table [][]int) (*circuit.Circuit, error) {
	rows := make([][]field.Element, len(table))
	for r, row := range table {
		if len(row) != n {
			return nil, fmt.Errorf("mediator: row %d has %d entries, want %d", r, len(row), n)
		}
		rows[r] = make([]field.Element, n)
		for i, a := range row {
			rows[r][i] = game.ActionToField(game.Action(a))
		}
	}
	b := circuit.NewBuilder(n)
	outs := b.SelectUniform(rows)
	for p := 0; p < n; p++ {
		b.Output(p, outs[p])
	}
	return b.Build()
}

// MajorityCircuit builds the game-theoretic Byzantine agreement mediator:
// every player reports a bit; every player is told the majority bit. The
// majority indicator over the bit-sum s in {0..n} is realized as the
// degree-n Lagrange polynomial through the points (j, [2j > n]), evaluated
// with a chain of secret multiplications for the powers of s.
func MajorityCircuit(n int) (*circuit.Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("mediator: n=%d", n)
	}
	// Interpolate L with L(j) = 1 iff 2j > n.
	pts := make([]poly.Point, n+1)
	for j := 0; j <= n; j++ {
		y := field.Element(0)
		if 2*j > n {
			y = 1
		}
		pts[j] = poly.Point{X: field.Element(j), Y: y}
	}
	lag, err := poly.Interpolate(pts)
	if err != nil {
		return nil, fmt.Errorf("mediator: %w", err)
	}

	b := circuit.NewBuilder(n)
	var s circuit.Wire
	for p := 0; p < n; p++ {
		in := b.Input(p)
		if p == 0 {
			s = in
		} else {
			s = b.Add(s, in)
		}
	}
	// Horner evaluation of lag at s: result = (((c_d*s + c_{d-1})*s + ...)
	deg := lag.Degree()
	acc := b.Const(coeff(lag, deg))
	for d := deg - 1; d >= 0; d-- {
		acc = b.Mul(acc, s)
		acc = b.AddConst(acc, coeff(lag, d))
	}
	for p := 0; p < n; p++ {
		b.Output(p, acc)
	}
	return b.Build()
}

func coeff(p poly.Poly, d int) field.Element {
	if d < len(p) {
		return p[d]
	}
	return 0
}

// MatchingCircuit builds the "secret date" mediator for 2 players: if the
// reported preferred venues agree, recommend that venue to both; otherwise
// recommend a fair coin flip. eq = 1 - (t0-t1)^2 for bit inputs; venue =
// eq*t0 + (1-eq)*r.
func MatchingCircuit() (*circuit.Circuit, error) {
	b := circuit.NewBuilder(2)
	t0 := b.Input(0)
	t1 := b.Input(1)
	d := b.Sub(t0, t1)
	d2 := b.Mul(d, d)
	eq := b.Sub(b.Const(1), d2)
	r := b.RandBit()
	agree := b.Mul(eq, t0)
	disagree := b.Mul(b.Sub(b.Const(1), eq), r)
	venue := b.Add(agree, disagree)
	b.Output(0, venue)
	b.Output(1, venue)
	return b.Build()
}

// Section64Circuit builds the minimally informative version of the
// Section 6.4 mediator: a single random bit b recommended to everyone
// (actions 0 or 1 of the Section64Game). This is f(sigma_d): compared to
// the leaky mediator it reveals nothing beyond each player's own
// recommendation.
func Section64Circuit(n int) (*circuit.Circuit, error) {
	b := circuit.NewBuilder(n)
	bit := b.RandBit()
	for p := 0; p < n; p++ {
		b.Output(p, bit)
	}
	return b.Build()
}

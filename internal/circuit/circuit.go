// Package circuit implements arithmetic circuits over GF(2^31-1).
//
// The paper assumes "the mediator can be represented by an arithmetic
// circuit with at most c gates" (Section 4). A mediator circuit takes each
// player's type (input) and internal random bits, and computes one output
// wire per player — the action the mediator tells that player to play.
// Package mpc evaluates these circuits with asynchronous multiparty
// computation; package mediator evaluates them in the clear inside the
// trusted mediator.
package circuit

import (
	"fmt"

	"asyncmediator/internal/field"
)

// Op identifies a gate operation.
type Op int

// Gate operations. RandBit gates are the circuit's source of randomness:
// in-the-clear evaluation draws a fair bit; MPC evaluation produces a
// shared uniform bit unknown to any coalition of up to the threshold size.
const (
	OpInput Op = iota + 1
	OpConst
	OpAdd
	OpSub
	OpMul
	OpMulConst
	OpAddConst
	OpRandBit
)

func (o Op) String() string {
	switch o {
	case OpInput:
		return "input"
	case OpConst:
		return "const"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpMulConst:
		return "mulconst"
	case OpAddConst:
		return "addconst"
	case OpRandBit:
		return "randbit"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Wire is an index into the circuit's gate list; gate i's output is wire i.
type Wire int

// Gate is a single arithmetic gate.
type Gate struct {
	Op     Op
	A, B   Wire          // operand wires (OpAdd, OpSub, OpMul; A for unary ops)
	K      field.Element // constant (OpConst, OpMulConst, OpAddConst)
	Player int           // input owner (OpInput)
	Slot   int           // input slot within the owner's input vector (OpInput)
}

// Output designates a wire whose value is privately revealed to a player.
type Output struct {
	Player int
	W      Wire
}

// Circuit is an immutable arithmetic circuit. Build one with a Builder.
type Circuit struct {
	n       int // number of players
	gates   []Gate
	outputs []Output
	inputs  map[int]int // player -> number of input slots
}

// N returns the number of players the circuit was built for.
func (c *Circuit) N() int { return c.n }

// Gates returns the gate list (callers must not modify it).
func (c *Circuit) Gates() []Gate { return c.gates }

// Outputs returns the output designations (callers must not modify it).
func (c *Circuit) Outputs() []Output { return c.outputs }

// InputSlots returns how many input values the given player provides.
func (c *Circuit) InputSlots(player int) int { return c.inputs[player] }

// RandBitCount returns the number of random-bit gates.
func (c *Circuit) RandBitCount() int {
	k := 0
	for _, g := range c.gates {
		if g.Op == OpRandBit {
			k++
		}
	}
	return k
}

// Eval evaluates the circuit in the clear. inputs[p] is player p's input
// vector; rng supplies random bits. It returns one value per Output, in
// Outputs() order.
func (c *Circuit) Eval(inputs [][]field.Element, rng field.Source) ([]field.Element, error) {
	return c.eval(inputs, func(int) (field.Element, error) { return field.RandBit(rng), nil })
}

// eval evaluates the circuit, drawing each random-bit gate's value from
// bit (called with the gate's index, in gate order).
func (c *Circuit) eval(inputs [][]field.Element, bit func(gate int) (field.Element, error)) ([]field.Element, error) {
	vals := make([]field.Element, len(c.gates))
	for i, g := range c.gates {
		switch g.Op {
		case OpInput:
			if g.Player >= len(inputs) || g.Slot >= len(inputs[g.Player]) {
				return nil, fmt.Errorf("circuit: missing input player=%d slot=%d", g.Player, g.Slot)
			}
			vals[i] = inputs[g.Player][g.Slot]
		case OpConst:
			vals[i] = g.K
		case OpAdd:
			vals[i] = vals[g.A].Add(vals[g.B])
		case OpSub:
			vals[i] = vals[g.A].Sub(vals[g.B])
		case OpMul:
			vals[i] = vals[g.A].Mul(vals[g.B])
		case OpMulConst:
			vals[i] = vals[g.A].Mul(g.K)
		case OpAddConst:
			vals[i] = vals[g.A].Add(g.K)
		case OpRandBit:
			v, err := bit(i)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		default:
			return nil, fmt.Errorf("circuit: unknown op %v", g.Op)
		}
	}
	out := make([]field.Element, len(c.outputs))
	for i, o := range c.outputs {
		out[i] = vals[o.W]
	}
	return out, nil
}

// Builder constructs a Circuit incrementally. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	n       int
	gates   []Gate
	outputs []Output
	inputs  map[int]int
	err     error
}

// NewBuilder returns a Builder for an n-player circuit.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, inputs: make(map[int]int)}
}

func (b *Builder) push(g Gate) Wire {
	b.gates = append(b.gates, g)
	return Wire(len(b.gates) - 1)
}

func (b *Builder) setErr(err error) Wire {
	if b.err == nil {
		b.err = err
	}
	return 0
}

func (b *Builder) checkWire(w Wire) bool {
	if w < 0 || int(w) >= len(b.gates) {
		b.setErr(fmt.Errorf("circuit: wire %d out of range", w))
		return false
	}
	return true
}

// Input adds an input gate for the given player. Slots are allocated
// consecutively per player: the first call for player p is slot 0, etc.
func (b *Builder) Input(player int) Wire {
	if player < 0 || player >= b.n {
		return b.setErr(fmt.Errorf("circuit: input player %d out of range [0,%d)", player, b.n))
	}
	slot := b.inputs[player]
	b.inputs[player] = slot + 1
	return b.push(Gate{Op: OpInput, Player: player, Slot: slot})
}

// Const adds a constant gate.
func (b *Builder) Const(v field.Element) Wire { return b.push(Gate{Op: OpConst, K: v}) }

// Add adds an addition gate computing a + b.
func (b *Builder) Add(a, w Wire) Wire {
	if !b.checkWire(a) || !b.checkWire(w) {
		return 0
	}
	return b.push(Gate{Op: OpAdd, A: a, B: w})
}

// Sub adds a subtraction gate computing a - b.
func (b *Builder) Sub(a, w Wire) Wire {
	if !b.checkWire(a) || !b.checkWire(w) {
		return 0
	}
	return b.push(Gate{Op: OpSub, A: a, B: w})
}

// Mul adds a multiplication gate computing a * b.
func (b *Builder) Mul(a, w Wire) Wire {
	if !b.checkWire(a) || !b.checkWire(w) {
		return 0
	}
	return b.push(Gate{Op: OpMul, A: a, B: w})
}

// MulConst adds a gate computing k * a.
func (b *Builder) MulConst(a Wire, k field.Element) Wire {
	if !b.checkWire(a) {
		return 0
	}
	return b.push(Gate{Op: OpMulConst, A: a, K: k})
}

// AddConst adds a gate computing a + k.
func (b *Builder) AddConst(a Wire, k field.Element) Wire {
	if !b.checkWire(a) {
		return 0
	}
	return b.push(Gate{Op: OpAddConst, A: a, K: k})
}

// RandBit adds a uniform random bit gate.
func (b *Builder) RandBit() Wire { return b.push(Gate{Op: OpRandBit}) }

// Output marks wire w as (privately) output to player.
func (b *Builder) Output(player int, w Wire) {
	if player < 0 || player >= b.n {
		b.setErr(fmt.Errorf("circuit: output player %d out of range [0,%d)", player, b.n))
		return
	}
	if !b.checkWire(w) {
		return
	}
	b.outputs = append(b.outputs, Output{Player: player, W: w})
}

// Mux adds gates computing: bit*hi + (1-bit)*lo. bit must carry 0 or 1.
func (b *Builder) Mux(bit, hi, lo Wire) Wire {
	diff := b.Sub(hi, lo)
	sel := b.Mul(bit, diff)
	return b.Add(lo, sel)
}

// SelectUniform adds gates that select uniformly at random among
// len(table) = 2^m alternatives, where table[leaf][j] is the value of
// output j under alternative leaf. It returns one wire per output column.
// This is the workhorse for mediators implementing correlated equilibria:
// each leaf is an action profile and column j is player j's recommended
// action. len(table) must be a power of two and all rows equal length.
func (b *Builder) SelectUniform(table [][]field.Element) []Wire {
	if len(table) == 0 {
		b.setErr(fmt.Errorf("circuit: empty selection table"))
		return nil
	}
	m := 0
	for 1<<m < len(table) {
		m++
	}
	if 1<<m != len(table) {
		b.setErr(fmt.Errorf("circuit: selection table size %d is not a power of two", len(table)))
		return nil
	}
	cols := len(table[0])
	for _, row := range table {
		if len(row) != cols {
			b.setErr(fmt.Errorf("circuit: ragged selection table"))
			return nil
		}
	}
	bits := make([]Wire, m)
	for i := range bits {
		bits[i] = b.RandBit()
	}
	// Recursive mux tree over the table rows.
	rows := make([][]Wire, len(table))
	for r, row := range table {
		rows[r] = make([]Wire, cols)
		for c, v := range row {
			rows[r][c] = b.Const(v)
		}
	}
	for level := 0; level < m; level++ {
		half := len(rows) / 2
		next := make([][]Wire, half)
		for r := 0; r < half; r++ {
			next[r] = make([]Wire, cols)
			for c := 0; c < cols; c++ {
				next[r][c] = b.Mux(bits[level], rows[2*r+1][c], rows[2*r][c])
			}
		}
		rows = next
	}
	return rows[0]
}

// Build finalizes the circuit. It fails if any prior builder call was
// invalid or if the circuit has no outputs.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.outputs) == 0 {
		return nil, fmt.Errorf("circuit: no outputs designated")
	}
	inputs := make(map[int]int, len(b.inputs))
	for k, v := range b.inputs {
		inputs[k] = v
	}
	gates := make([]Gate, len(b.gates))
	copy(gates, b.gates)
	outputs := make([]Output, len(b.outputs))
	copy(outputs, b.outputs)
	return &Circuit{n: b.n, gates: gates, outputs: outputs, inputs: inputs}, nil
}

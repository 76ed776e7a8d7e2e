package circuit

import (
	"fmt"
	"math/rand"
	"testing"

	"asyncmediator/internal/field"
)

func mustBuild(t *testing.T, b *Builder) *Circuit {
	t.Helper()
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestArithmetic(t *testing.T) {
	// out = (x0 + x1) * 3 - x1 + 5, for players 0 and 1.
	b := NewBuilder(2)
	x0 := b.Input(0)
	x1 := b.Input(1)
	sum := b.Add(x0, x1)
	tripled := b.MulConst(sum, 3)
	diff := b.Sub(tripled, x1)
	out := b.AddConst(diff, 5)
	b.Output(0, out)
	c := mustBuild(t, b)

	rng := rand.New(rand.NewSource(1))
	got, err := c.Eval([][]field.Element{{10}, {4}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// (10+4)*3 - 4 + 5 = 43
	if got[0] != 43 {
		t.Fatalf("got %v, want 43", got[0])
	}
}

func TestMulGate(t *testing.T) {
	b := NewBuilder(2)
	x := b.Input(0)
	y := b.Input(1)
	b.Output(0, b.Mul(x, y))
	c := mustBuild(t, b)
	got, err := c.Eval([][]field.Element{{6}, {7}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("got %v, want 42", got[0])
	}
}

func TestMultipleInputSlots(t *testing.T) {
	b := NewBuilder(1)
	a := b.Input(0)  // slot 0
	c2 := b.Input(0) // slot 1
	b.Output(0, b.Sub(a, c2))
	c := mustBuild(t, b)
	if c.InputSlots(0) != 2 {
		t.Fatalf("InputSlots = %d, want 2", c.InputSlots(0))
	}
	got, err := c.Eval([][]field.Element{{10, 3}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("got %v, want 7", got[0])
	}
}

func TestRandBitIsBit(t *testing.T) {
	b := NewBuilder(1)
	b.Output(0, b.RandBit())
	c := mustBuild(t, b)
	rng := rand.New(rand.NewSource(2))
	zeros, ones := 0, 0
	for i := 0; i < 200; i++ {
		got, err := c.Eval([][]field.Element{{}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		switch got[0] {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			t.Fatalf("RandBit output %v not a bit", got[0])
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatalf("degenerate bit distribution: %d zeros, %d ones", zeros, ones)
	}
}

// evalWithBits evaluates c with a fixed random-bit tape, consumed by the
// random-bit gates in gate order; an exhausted tape is an error.
func evalWithBits(c *Circuit, inputs [][]field.Element, bits []field.Element) ([]field.Element, error) {
	next := 0
	return c.eval(inputs, func(gate int) (field.Element, error) {
		if next >= len(bits) {
			return 0, fmt.Errorf("circuit: random tape exhausted at gate %d", gate)
		}
		next++
		return bits[next-1], nil
	})
}

func TestEvalWithBits(t *testing.T) {
	b := NewBuilder(1)
	r1 := b.RandBit()
	r2 := b.RandBit()
	b.Output(0, b.Add(b.MulConst(r1, 2), r2)) // 2*r1 + r2 in {0,1,2,3}
	c := mustBuild(t, b)
	for _, tt := range []struct {
		bits []field.Element
		want field.Element
	}{
		{[]field.Element{0, 0}, 0},
		{[]field.Element{0, 1}, 1},
		{[]field.Element{1, 0}, 2},
		{[]field.Element{1, 1}, 3},
	} {
		got, err := evalWithBits(c, [][]field.Element{{}}, tt.bits)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tt.want {
			t.Fatalf("bits %v: got %v, want %v", tt.bits, got[0], tt.want)
		}
	}
	// Exhausted tape is an error.
	if _, err := evalWithBits(c, [][]field.Element{{}}, []field.Element{1}); err == nil {
		t.Fatal("expected tape-exhausted error")
	}
}

func TestMux(t *testing.T) {
	b := NewBuilder(1)
	bit := b.Input(0)
	hi := b.Const(100)
	lo := b.Const(7)
	b.Output(0, b.Mux(bit, hi, lo))
	c := mustBuild(t, b)
	rng := rand.New(rand.NewSource(3))
	if got, _ := c.Eval([][]field.Element{{1}}, rng); got[0] != 100 {
		t.Fatalf("Mux(1) = %v, want 100", got[0])
	}
	if got, _ := c.Eval([][]field.Element{{0}}, rng); got[0] != 7 {
		t.Fatalf("Mux(0) = %v, want 7", got[0])
	}
}

func TestSelectUniform(t *testing.T) {
	// 4 profiles for 2 players; check the selection is uniform over rows.
	table := [][]field.Element{
		{10, 20},
		{11, 21},
		{12, 22},
		{13, 23},
	}
	b := NewBuilder(2)
	outs := b.SelectUniform(table)
	if len(outs) != 2 {
		t.Fatalf("SelectUniform returned %d wires, want 2", len(outs))
	}
	b.Output(0, outs[0])
	b.Output(1, outs[1])
	c := mustBuild(t, b)

	counts := map[field.Element]int{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		got, err := c.Eval([][]field.Element{{}, {}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Rows are consistent: player 1's value must match player 0's row.
		if got[1] != got[0].Add(10) {
			t.Fatalf("inconsistent row selection: %v, %v", got[0], got[1])
		}
		counts[got[0]]++
	}
	for _, row := range table {
		c := counts[row[0]]
		if c < 800 || c > 1200 { // expect ~1000 each
			t.Fatalf("row %v selected %d/4000 times; not uniform", row, c)
		}
	}
}

func TestSelectUniformExactDistribution(t *testing.T) {
	// Enumerate the full random tape: each of the 4 rows appears exactly once.
	table := [][]field.Element{{1}, {2}, {3}, {4}}
	b := NewBuilder(1)
	outs := b.SelectUniform(table)
	b.Output(0, outs[0])
	c := mustBuild(t, b)
	if c.RandBitCount() != 2 {
		t.Fatalf("RandBitCount = %d, want 2", c.RandBitCount())
	}
	seen := map[field.Element]bool{}
	for tape := 0; tape < 4; tape++ {
		bits := []field.Element{field.Element(tape & 1), field.Element(tape >> 1)}
		got, err := evalWithBits(c, [][]field.Element{{}}, bits)
		if err != nil {
			t.Fatal(err)
		}
		seen[got[0]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("tapes produced %d distinct rows, want 4", len(seen))
	}
}

func TestSelectUniformBadTable(t *testing.T) {
	b := NewBuilder(1)
	b.SelectUniform([][]field.Element{{1}, {2}, {3}}) // not a power of two
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for non-power-of-two table")
	}
	b2 := NewBuilder(1)
	b2.SelectUniform(nil)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for empty table")
	}
	b3 := NewBuilder(1)
	b3.SelectUniform([][]field.Element{{1, 2}, {3}}) // ragged
	if _, err := b3.Build(); err == nil {
		t.Fatal("expected error for ragged table")
	}
}

func TestMetrics(t *testing.T) {
	b := NewBuilder(2)
	x := b.Input(0)
	y := b.Input(1)
	m1 := b.Mul(x, y)
	m2 := b.Mul(m1, x)
	r := b.RandBit()
	s := b.Add(m2, r)
	b.Output(0, s)
	c := mustBuild(t, b)
	if len(c.Gates()) != 6 {
		t.Errorf("%d gates, want 6", len(c.Gates()))
	}
	if c.RandBitCount() != 1 {
		t.Errorf("RandBitCount = %d, want 1", c.RandBitCount())
	}
	if c.N() != 2 {
		t.Errorf("N = %d, want 2", c.N())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	b.Input(5) // out of range
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for bad input player")
	}

	b2 := NewBuilder(2)
	x := b2.Input(0)
	b2.Output(7, x)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for bad output player")
	}

	b3 := NewBuilder(2)
	b3.Input(0)
	if _, err := b3.Build(); err == nil {
		t.Fatal("expected error for no outputs")
	}

	b4 := NewBuilder(1)
	b4.Add(0, 99) // wire out of range
	if _, err := b4.Build(); err == nil {
		t.Fatal("expected error for bad wire")
	}
}

func TestEvalMissingInput(t *testing.T) {
	b := NewBuilder(2)
	x := b.Input(1)
	b.Output(0, x)
	c := mustBuild(t, b)
	if _, err := c.Eval([][]field.Element{{}}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpInput: "input", OpConst: "const", OpAdd: "add", OpSub: "sub",
		OpMul: "mul", OpMulConst: "mulconst", OpAddConst: "addconst",
		OpRandBit: "randbit", Op(99): "op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

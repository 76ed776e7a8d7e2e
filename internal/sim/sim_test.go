package sim

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.

// runSerial runs one catalog experiment on a single-worker engine.
func runSerial(id string, o Options) (*Table, error) {
	e := NewEngine(1)
	defer e.Close()
	return e.Run(id, o)
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("row %d col %d: %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// findRows returns indices of rows whose given column equals val.
func findRows(tab *Table, col int, val string) []int {
	var out []int
	for i, r := range tab.Rows {
		if r[col] == val {
			out = append(out, i)
		}
	}
	return out
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	tab.Notes = append(tab.Notes, "hello")
	s := tab.Render()
	for _, want := range []string{"== T ==", "a", "b", "1", "2.5", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestE1Shape(t *testing.T) {
	o := QuickOptions()
	o.Trials = 8
	tab, err := runSerial("e1", o)
	if err != nil {
		t.Fatal(err)
	}
	// There must be below-bound rejected rows and ok rows.
	rejected := findRows(tab, 3, "below bound: rejected")
	ok := findRows(tab, 3, "ok")
	if len(rejected) == 0 || len(ok) == 0 {
		t.Fatalf("expected both rejected and ok rows:\n%s", tab.Render())
	}
	for _, r := range ok {
		if u := cell(t, tab, r, 4); u < 0.99 {
			t.Fatalf("unanimity %v < 1 in ok row:\n%s", u, tab.Render())
		}
		val := cell(t, tab, r, 6)
		if val < 1.0 || val > 2.0 {
			t.Fatalf("honest value %v out of range:\n%s", val, tab.Render())
		}
		// No profitable deviation: deviator values bounded by honest value
		// plus Monte-Carlo slack.
		mute := cell(t, tab, r, 7)
		if mute > val+0.45 {
			t.Fatalf("mute deviation profits: %v > %v:\n%s", mute, val, tab.Render())
		}
	}
}

func TestE3PunishmentDeters(t *testing.T) {
	o := QuickOptions()
	o.Trials = 8
	tab, err := runSerial("e3", o)
	if err != nil {
		t.Fatal(err)
	}
	ok := findRows(tab, 3, "ok")
	if len(ok) == 0 {
		t.Fatalf("no ok rows:\n%s", tab.Render())
	}
	for _, r := range ok {
		honest := cell(t, tab, r, 4)
		stall := cell(t, tab, r, 5)
		if stall >= honest {
			t.Fatalf("stalling not punished: %v >= %v:\n%s", stall, honest, tab.Render())
		}
		if tab.Rows[r][6] != "yes" {
			t.Fatalf("punished? should be yes:\n%s", tab.Render())
		}
	}
}

func TestE5MonotoneScaling(t *testing.T) {
	o := QuickOptions()
	tab, err := runSerial("e5", o)
	if err != nil {
		t.Fatal(err)
	}
	// Within each sweep the message counts must increase.
	var lastSweep string
	var lastVal float64
	for i, row := range tab.Rows {
		v := cell(t, tab, i, 2)
		if row[0] == lastSweep && v <= lastVal {
			t.Fatalf("sweep %q not increasing at row %d:\n%s", row[0], i, tab.Render())
		}
		lastSweep, lastVal = row[0], v
	}
	// Mediator rounds sweep should be ~linear: msgs(R=8)/msgs(R=4) in [1.4, 2.5].
	rows := findRows(tab, 0, "R (mediator rounds, n=4)")
	if len(rows) != 4 {
		t.Fatalf("expected 4 R rows:\n%s", tab.Render())
	}
	r4 := cell(t, tab, rows[2], 2)
	r8 := cell(t, tab, rows[3], 2)
	if ratio := r8 / r4; ratio < 1.4 || ratio > 2.5 {
		t.Fatalf("R scaling ratio %v, want ~2:\n%s", ratio, tab.Render())
	}
}

// TestE5RandomBitCostsOneOpening: a dealer deals its rho and masks for
// every random-bit gate inside its one AVSS dealing, so each further bit
// in E5's c sweep (n=5) adds no dealing, only the public opening of its
// r² + z: exactly n² = 25 messages.
func TestE5RandomBitCostsOneOpening(t *testing.T) {
	tab, err := runSerial("e5", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := findRows(tab, 0, "c (randbits, n=5)")
	if len(rows) != 3 {
		t.Fatalf("expected 3 c rows:\n%s", tab.Render())
	}
	for i := 1; i < len(rows); i++ {
		if d := cell(t, tab, rows[i], 2) - cell(t, tab, rows[i-1], 2); d != 25 {
			t.Fatalf("bit %d adds %v messages, want 25:\n%s", i+1, d, tab.Render())
		}
	}
}

func TestE6PaperNumbers(t *testing.T) {
	o := QuickOptions()
	o.Trials = 100 // E6 multiplies by 4 internally
	tab, err := runSerial("e6", o)
	if err != nil {
		t.Fatal(err)
	}
	leaky := cell(t, tab, 0, 1)
	fixed := cell(t, tab, 1, 1)
	if leaky < 1.51 || leaky > 1.60 {
		t.Fatalf("leaky coalition value %v, want ~1.55:\n%s", leaky, tab.Render())
	}
	if fixed < 1.45 || fixed > 1.55 {
		t.Fatalf("fixed mediator value %v, want ~1.5:\n%s", fixed, tab.Render())
	}
	if leaky <= fixed {
		t.Fatalf("leaky should strictly exceed fixed: %v vs %v", leaky, fixed)
	}
}

func TestE7Crossover(t *testing.T) {
	o := QuickOptions()
	o.Trials = 5
	tab, err := runSerial("e7", o)
	if err != nil {
		t.Fatal(err)
	}
	// Row structure: for each (k,t), rows at n = 3d+1, 4d, 4d+1.
	// At n = 3d+1: sync ok, async-exact infeasible, async-epsilon ok.
	for _, r := range []int{0, 3} {
		row := tab.Rows[r]
		if row[3] != "ok" {
			t.Fatalf("sync should be ok at crossover row:\n%s", tab.Render())
		}
		if row[4] == "ok" {
			t.Fatalf("async exact should be infeasible at crossover row:\n%s", tab.Render())
		}
		if row[5] != "ok" {
			t.Fatalf("async epsilon should be ok at crossover row:\n%s", tab.Render())
		}
	}
	// At n = 4d+1 all three succeed.
	for _, r := range []int{2, 5} {
		row := tab.Rows[r]
		if row[3] != "ok" || row[4] != "ok" || row[5] != "ok" {
			t.Fatalf("all protocols should be ok above both bounds:\n%s", tab.Render())
		}
	}
}

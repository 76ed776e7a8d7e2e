// Package sim is the experiment harness: it regenerates, as text tables
// and machine-readable JSON, the quantitative content of every claim in
// the paper's Theorems 4.1-4.5 and Section 6.4 (experiments E1-E7, indexed
// by Catalog). The Engine shards each experiment's (params x trial) grid
// across the shared bounded worker pool (internal/pool, the same pool
// implementation that executes the session farm's plays); cmd/mediatorsim
// prints the tables; bench_test.go wraps them as benchmarks. No
// paper-vs-measured record is committed: each table's title and notes
// state the claim it checks, and a run regenerates the measurement.
package sim

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"
)

// CellError pins a failure to one cell of an experiment grid, so a bad
// parameter point is reported in place instead of aborting the sweep.
type CellError struct {
	// Cell names the grid point, e.g. "k=1,t=0,n=5".
	Cell string `json:"cell"`
	// Err is the failure message.
	Err string `json:"error"`
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment id ("e1".."e7"); set by Engine.Run.
	ID     string     `json:"id,omitempty"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Errors collects per-cell failures; the corresponding rows carry an
	// "error" status and the remaining cells of the sweep still run.
	Errors []CellError `json:"errors,omitempty"`
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddError records a failed cell and appends a placeholder row: the first
// `fixed` cells are taken verbatim (the grid coordinates), the rest of the
// columns are filled with "error".
func (t *Table) AddError(cell string, err error, fixed ...any) {
	t.Errors = append(t.Errors, CellError{Cell: cell, Err: err.Error()})
	row := make([]any, 0, len(t.Header))
	row = append(row, fixed...)
	for len(row) < len(t.Header) {
		row = append(row, "error")
	}
	t.AddRow(row...)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	_ = w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	for _, e := range t.Errors {
		fmt.Fprintf(&sb, "error: %s: %s\n", e.Cell, e.Err)
	}
	return sb.String()
}

// Report is the machine-readable result of one sweep. It deliberately
// excludes wall time and worker count: a report is a pure function of
// (experiments, Options), byte-identical whether the trials ran serially
// or sharded across a pool.
type Report struct {
	Seed0    int64    `json:"seed0"`
	Trials   int      `json:"trials"`
	MaxSteps int      `json:"max_steps"`
	Tables   []*Table `json:"tables"`
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Options tune experiment sizes so tests stay fast while the CLI can run
// larger sweeps.
type Options struct {
	// Trials per Monte-Carlo estimate.
	Trials int
	// Seed0 is the base seed; trial i plays with core.TrialSeed(Seed0, i).
	Seed0 int64
	// MaxSteps bounds each simulated run.
	MaxSteps int
}

// DefaultOptions are CLI-scale settings.
func DefaultOptions() Options {
	return Options{Trials: 100, Seed0: 1, MaxSteps: 30_000_000}
}

// QuickOptions are test-scale settings.
func QuickOptions() Options {
	return Options{Trials: 12, Seed0: 1, MaxSteps: 30_000_000}
}

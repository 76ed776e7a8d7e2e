// Command mediatorsim regenerates the paper-reproduction experiment tables
// (E1-E7, listed by -h from sim.Catalog), sharding each experiment's
// (params x trial) grid across a worker pool. Output is bit-identical at
// any parallelism level: -parallel only changes how fast the sweep runs.
//
// Usage:
//
//	mediatorsim -experiment all                  # run everything, all cores
//	mediatorsim -experiment e6 -trials 400       # just the Section 6.4 table
//	mediatorsim -parallel 1                      # serial reference run
//	mediatorsim -json out.json                   # machine-readable sweep report
//	mediatorsim -experiment e1,e5 -json -        # JSON only, to stdout
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"asyncmediator/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mediatorsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mediatorsim", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "comma-separated experiment ids (see list below) or all")
	trials := fs.Int("trials", 0, "Monte-Carlo trials per estimate (0 = default 100)")
	seed := fs.Int64("seed", 1, "base seed; trial i of a sweep plays with seed+i")
	parallel := fs.Int("parallel", 0, "worker count for trial sharding (0 = all cores, 1 = serial)")
	jsonOut := fs.String("json", "", "also write the sweep report as JSON to this file (\"-\": JSON to stdout, no text tables)")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "Usage of mediatorsim:\n")
		fs.PrintDefaults()
		fmt.Fprintf(out, "\nExperiments (ids accepted by -experiment):\n")
		for _, e := range sim.Catalog() {
			fmt.Fprintf(out, "  %-4s %s\n", e.ID, e.Title)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	o := sim.DefaultOptions()
	if *trials > 0 {
		o.Trials = *trials
	}
	o.Seed0 = *seed

	var ids []string
	for _, id := range strings.Split(strings.ToLower(*exp), ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}

	eng := sim.NewEngine(*parallel)
	defer eng.Close()
	rep, err := eng.Sweep(ids, o)
	if err != nil {
		return err
	}

	// The report file lands before the text render, so a consumer piping
	// the tables through a pager cannot truncate the artifact.
	if *jsonOut != "" {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			_, err = stdout.Write(b)
			return err
		}
		if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			return err
		}
	}
	for _, tab := range rep.Tables {
		fmt.Fprintln(stdout, tab.Render())
	}
	return nil
}

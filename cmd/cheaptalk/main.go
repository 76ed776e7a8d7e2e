// Command cheaptalk runs a single compiled cheap-talk session and prints
// what happened: the theorem variant used, the agreed action profile, the
// message/step counts, and optionally the first part of the scheduler's
// message-pattern timeline.
//
// Usage:
//
//	cheaptalk -n 5 -k 1 -t 0 -variant 4.1 -seed 3 -timeline 30
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cheaptalk:", err)
		os.Exit(1)
	}
}

// run parses args, plays one session through core.Run and writes the
// report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cheaptalk", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of players")
	k := fs.Int("k", 1, "rational coalition bound")
	t := fs.Int("t", 0, "malicious player bound")
	variant := fs.String("variant", "4.1", "theorem variant: 4.1, 4.2, 4.4, 4.5")
	seed := fs.Int64("seed", 1, "run seed")
	timeline := fs.Int("timeline", 0, "print the first N scheduler steps")
	sched := fs.String("sched", "roundrobin", "scheduler: roundrobin, random, fifo")
	if err := fs.Parse(args); err != nil {
		return err
	}

	v, err := core.ParseVariant(*variant)
	if err != nil {
		return err
	}
	params, err := core.Section64Params(*n, *k, *t, v)
	if err != nil {
		return err
	}
	params.CoinSeed = *seed
	if err := params.Validate(); err != nil {
		return err
	}
	g := params.Game

	s, err := async.SchedulerByName(*sched, *seed)
	if err != nil {
		return err
	}

	// Trace only when asked (it is O(messages) memory).
	rec := &async.TraceRecorder{}
	types := make([]game.Type, *n)
	cfg := core.RunConfig{Params: params, Types: types, Scheduler: s, Seed: *seed, MaxSteps: 50_000_000}
	if *timeline > 0 {
		cfg.Trace = rec.Record
	}
	prof, res, err := core.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "variant:    %v (bound n > %d, have n=%d)\n", v, v.Bound(*k, *t)-1, *n)
	fmt.Fprintf(w, "profile:    %v\n", prof)
	fmt.Fprintf(w, "utility:    %.3g\n", g.Utility(types, prof)[0])
	fmt.Fprintf(w, "deadlocked: %v\n", res.Deadlocked)
	fmt.Fprintf(w, "messages:   %d sent, %d delivered, %d steps\n",
		res.Stats.MessagesSent, res.Stats.MessagesDelivered, res.Stats.Steps)
	if *timeline > 0 {
		fmt.Fprintf(w, "\nscheduler timeline (first %d steps):\n%s", *timeline, rec.Timeline(*timeline))
		fmt.Fprintf(w, "max in-flight messages: %d\n", rec.MaxInFlight())
	}
	return nil
}

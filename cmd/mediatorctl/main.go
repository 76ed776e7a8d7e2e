// Command mediatorctl is the operator CLI for a mediatord session farm,
// built purely on the typed SDK (pkg/client) against the versioned /v1
// contract (package api) — it performs no hand-rolled HTTP.
//
//	mediatorctl -addr http://127.0.0.1:8080 <command> [flags] [args]
//
// Commands:
//
//	session create   create a play (-n -k -t -variant ...); -types submits
//	                 the profile too, -watch follows it to a terminal state,
//	                 repeatable -peer INDEX=ADDR co-hosts players on other
//	                 daemons (cluster mode)
//	session get      one session snapshot (-wait long-polls to terminal)
//	session list     page sessions (-state -offset -limit; -all walks pages)
//	session types    submit a type profile: session types s-000001 0,0,0,0,0
//	session watch    follow one session to its terminal snapshot
//	session trace    render a terminal play's stitched trace: compact
//	                 per-phase timeline across daemons plus a slowest-phase
//	                 summary (-json for the raw TraceView)
//	experiment list  the catalog (e1..e7)
//	experiment run   run an experiment as a job and wait for its table
//	                 (-no-wait to just print the job handle)
//	experiment get   one job snapshot (-wait long-polls to terminal)
//	stats            farm-wide aggregate statistics
//	traces           search the daemon's retained finished-play traces
//	                 (-variant -phase -min-ms -within -limit -cursor;
//	                 -json for the raw TracePage)
//	slo              burn-rate state of the configured SLO objectives,
//	                 exemplar traces included (-json for the raw SLOView)
//	obs              observability summary: cluster link counters,
//	                 worker-pool load, durable-store health
//	events tail      stream state transitions (-session -kind) as JSON lines
//	cluster drop     sever live cluster transport conns (daemon runs -chaos)
//	ready            readiness probe (exit 1 when not ready)
//	apidoc           print the generated /v1 API reference (markdown)
//
// Every command prints JSON on stdout (session trace renders a text
// timeline unless given -json), so output composes with jq. The daemon
// address can also come from the MEDIATORD_ADDR environment variable;
// the flag wins.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"asyncmediator/api"
	"asyncmediator/pkg/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one CLI invocation; it is the testable entry point.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mediatorctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defaultAddr := os.Getenv("MEDIATORD_ADDR")
	if defaultAddr == "" {
		defaultAddr = "http://127.0.0.1:8080"
	}
	addr := fs.String("addr", defaultAddr, "mediatord base URL (or MEDIATORD_ADDR)")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall command deadline")
	retries := fs.Int("retries", 3, "retries for transient failures (backpressure, transport)")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage(stderr, fs)
		return 2
	}

	if rest[0] == "apidoc" { // needs no daemon
		fmt.Fprint(stdout, api.Reference())
		return 0
	}

	c, err := client.New(*addr, client.WithRetries(*retries))
	if err != nil {
		fmt.Fprintln(stderr, "mediatorctl:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	err = dispatch(ctx, c, rest, stdout, stderr)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintln(stderr, "mediatorctl:", err)
		return 1
	}
}

// errUsage marks a malformed command line (exit code 2, message already
// printed).
var errUsage = errors.New("usage")

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: mediatorctl [flags] <command> [command flags] [args]")
	fmt.Fprintln(w, "commands: session create|get|list|types|watch|trace, experiment list|run|get,")
	fmt.Fprintln(w, "          stats, traces, slo, obs, events tail,")
	fmt.Fprintln(w, "          cluster drop, ready, apidoc")
	fmt.Fprintln(w, "flags:")
	fs.PrintDefaults()
}

// dispatch routes noun/verb to its handler.
func dispatch(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	bad := func(format string, a ...any) error {
		fmt.Fprintf(stderr, "mediatorctl: "+format+"\n", a...)
		return errUsage
	}
	switch args[0] {
	case "session":
		if len(args) < 2 {
			return bad("session needs a verb: create|get|list|types|watch|trace")
		}
		switch args[1] {
		case "create":
			return sessionCreate(ctx, c, args[2:], stdout, stderr)
		case "get":
			return sessionGet(ctx, c, args[2:], stdout, stderr)
		case "list":
			return sessionList(ctx, c, args[2:], stdout, stderr)
		case "types":
			return sessionTypes(ctx, c, args[2:], stdout, stderr)
		case "watch":
			return sessionWatch(ctx, c, args[2:], stdout, stderr)
		case "trace":
			return sessionTrace(ctx, c, args[2:], stdout, stderr)
		default:
			return bad("unknown session verb %q", args[1])
		}
	case "experiment":
		if len(args) < 2 {
			return bad("experiment needs a verb: list|run|get")
		}
		switch args[1] {
		case "list":
			cat, err := c.Catalog(ctx)
			if err != nil {
				return err
			}
			return printJSON(stdout, cat)
		case "run":
			return experimentRun(ctx, c, args[2:], stdout, stderr)
		case "get":
			return experimentGet(ctx, c, args[2:], stdout, stderr)
		default:
			return bad("unknown experiment verb %q", args[1])
		}
	case "stats":
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		return printJSON(stdout, st)
	case "traces":
		return tracesSearch(ctx, c, args[1:], stdout, stderr)
	case "slo":
		return sloStatus(ctx, c, args[1:], stdout, stderr)
	case "obs":
		if len(args) > 1 {
			return bad("obs takes no verb, got %q", args[1])
		}
		return obsSummary(ctx, c, stdout)
	case "events":
		if len(args) < 2 || args[1] != "tail" {
			return bad("events needs the tail verb")
		}
		return eventsTail(ctx, c, args[2:], stdout, stderr)
	case "cluster":
		if len(args) < 2 || args[1] != "drop" {
			return bad("cluster needs the drop verb")
		}
		n, err := c.ClusterDrop(ctx)
		if err != nil {
			return err
		}
		return printJSON(stdout, map[string]int{"dropped": n})
	case "ready":
		if err := c.Ready(ctx); err != nil {
			return err
		}
		return printJSON(stdout, api.Readiness{Ready: true})
	default:
		return bad("unknown command %q", args[0])
	}
}

// printJSON renders one value as indented JSON on the command's stdout.
func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func sessionCreate(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("session create", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec api.SessionSpec
	fs.StringVar(&spec.Game, "game", "", "game: section64 (default) or consensus")
	fs.IntVar(&spec.N, "n", 0, "players (0: default 5)")
	fs.IntVar(&spec.K, "k", 0, "coalition bound")
	fs.IntVar(&spec.T, "t", 0, "malicious bound (0 with k=0: default t=1)")
	fs.StringVar(&spec.Variant, "variant", "", "theorem: 4.1 (default), 4.2, 4.4, 4.5")
	fs.StringVar(&spec.Scheduler, "scheduler", "", "sim scheduler: roundrobin (default), random, fifo")
	fs.StringVar(&spec.Backend, "backend", "", "backend: sim (default) or wire")
	fs.IntVar(&spec.MaxSteps, "max-steps", 0, "simulated step bound (0: default)")
	fs.Func("peer", "host player INDEX on the daemon at ADDR, as INDEX=ADDR (repeatable; implies the wire backend)", func(v string) error {
		idx, addr, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want INDEX=ADDR, got %q", v)
		}
		i, err := strconv.Atoi(strings.TrimSpace(idx))
		if err != nil {
			return fmt.Errorf("bad player index in %q", v)
		}
		spec.Peers = append(spec.Peers, api.PeerSpec{Index: i, Addr: strings.TrimSpace(addr)})
		return nil
	})
	seed := fs.String("seed", "", "session seed (empty: derived deterministically)")
	types := fs.String("types", "", "comma-separated type profile; submits after create")
	watch := fs.Bool("watch", false, "after submitting types, wait for the terminal snapshot")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	seedp, err := parseSeed(*seed, stderr)
	if err != nil {
		return err
	}
	spec.Seed = seedp
	if *watch && *types == "" {
		fmt.Fprintln(stderr, "mediatorctl: -watch needs -types")
		return errUsage
	}
	h, err := c.CreateSession(ctx, spec)
	if err != nil {
		return err
	}
	if *types == "" {
		return printJSON(stdout, h)
	}
	profile, err := parseTypes(*types)
	if err != nil {
		fmt.Fprintln(stderr, "mediatorctl:", err)
		return errUsage
	}
	if h, err = c.SubmitTypes(ctx, h.ID, profile); err != nil {
		return err
	}
	if !*watch {
		return printJSON(stdout, h)
	}
	v, err := c.WaitSession(ctx, h.ID)
	if err != nil {
		return err
	}
	return printJSON(stdout, v)
}

func sessionGet(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("session get", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wait := fs.Bool("wait", false, "long-poll until the session is terminal")
	pos, err := parseMixed(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		fmt.Fprintln(stderr, "mediatorctl: session get needs exactly one session id")
		return errUsage
	}
	var v api.SessionView
	if *wait {
		v, err = c.WaitSession(ctx, pos[0])
	} else {
		v, err = c.GetSession(ctx, pos[0])
	}
	if err != nil {
		return err
	}
	return printJSON(stdout, v)
}

func sessionList(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("session list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	state := fs.String("state", "", "filter by lifecycle state")
	offset := fs.Int("offset", 0, "page cursor")
	limit := fs.Int("limit", 0, "page size (0: server default)")
	all := fs.Bool("all", false, "walk every page (ignores -offset)")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *all {
		var views []api.SessionView
		err := c.EachSession(ctx, client.ListSessionsOptions{State: *state, Limit: *limit}, func(v api.SessionView) error {
			views = append(views, v)
			return nil
		})
		if err != nil {
			return err
		}
		return printJSON(stdout, views)
	}
	page, err := c.ListSessions(ctx, client.ListSessionsOptions{State: *state, Offset: *offset, Limit: *limit})
	if err != nil {
		return err
	}
	return printJSON(stdout, page)
}

func sessionTypes(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("session types", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pos, err := parseMixed(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 2 {
		fmt.Fprintln(stderr, "mediatorctl: usage: session types <id> <t0,t1,...>")
		return errUsage
	}
	profile, err := parseTypes(pos[1])
	if err != nil {
		fmt.Fprintln(stderr, "mediatorctl:", err)
		return errUsage
	}
	h, err := c.SubmitTypes(ctx, pos[0], profile)
	if err != nil {
		return err
	}
	return printJSON(stdout, h)
}

func sessionWatch(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("session watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pos, err := parseMixed(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		fmt.Fprintln(stderr, "mediatorctl: session watch needs exactly one session id")
		return errUsage
	}
	v, err := c.WaitSession(ctx, pos[0])
	if err != nil {
		return err
	}
	return printJSON(stdout, v)
}

func sessionTrace(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("session trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	raw := fs.Bool("json", false, "print the raw TraceView instead of the rendered timeline")
	pos, err := parseMixed(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		fmt.Fprintln(stderr, "mediatorctl: session trace needs exactly one session id")
		return errUsage
	}
	v, err := c.GetSessionTrace(ctx, pos[0])
	if err != nil {
		return err
	}
	if *raw {
		return printJSON(stdout, v)
	}
	renderTrace(stdout, v)
	return nil
}

// traceBarWidth is the character width of the rendered timeline bars.
const traceBarWidth = 28

// renderTrace prints a TraceView as a compact human timeline: one row
// per span with a proportional bar over the play's full window, then
// a slowest-phase summary aggregated across origins.
func renderTrace(w io.Writer, v api.TraceView) {
	origins := map[string]bool{}
	var lo, hi int64
	for i, s := range v.Spans {
		origins[s.Origin] = true
		if i == 0 || s.StartUS < lo {
			lo = s.StartUS
		}
		if end := spanEnd(s); end > hi {
			hi = end
		}
	}
	fmt.Fprintf(w, "trace %s: %d spans, %d origin(s), window %s\n",
		v.TraceID, len(v.Spans), len(origins), fmtUS(hi-lo))
	if v.Dropped > 0 {
		fmt.Fprintf(w, "warning: %d span(s) dropped by the bounded trace buffer\n", v.Dropped)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ORIGIN\tPHASE\tSTART\tDUR\tCOUNT\tTIMELINE\tATTRS")
	for _, s := range v.Spans {
		fmt.Fprintf(tw, "%s\t%s\t+%s\t%s\t%d\t%s\t%s\n",
			s.Origin, s.Name, fmtUS(s.StartUS-lo), fmtUS(spanEnd(s)-s.StartUS),
			s.Count, traceBar(s, lo, hi), fmtAttrs(s.Attrs))
	}
	tw.Flush()

	// Slowest phases: total span time by name, across origins.
	type phase struct {
		name  string
		total int64
		spans int
	}
	byName := map[string]*phase{}
	for _, s := range v.Spans {
		p := byName[s.Name]
		if p == nil {
			p = &phase{name: s.Name}
			byName[s.Name] = p
		}
		p.total += spanEnd(s) - s.StartUS
		p.spans++
	}
	phases := make([]*phase, 0, len(byName))
	for _, p := range byName {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].total != phases[j].total {
			return phases[i].total > phases[j].total
		}
		return phases[i].name < phases[j].name
	})
	fmt.Fprintln(w, "slowest phases:")
	for i, p := range phases {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "  %-12s %10s  (%d span(s))\n", p.name, fmtUS(p.total), p.spans)
	}
}

// spanEnd is the span's end offset; an end-less span (still open when
// snapshotted, or a pure counter) renders as zero-width at its start.
func spanEnd(s api.TraceSpan) int64 {
	if s.EndUS < s.StartUS {
		return s.StartUS
	}
	return s.EndUS
}

// traceBar renders a span's position within [lo,hi] as a fixed-width
// bar: '#' over the span's extent, '.' elsewhere.
func traceBar(s api.TraceSpan, lo, hi int64) string {
	cells := make([]byte, traceBarWidth)
	for i := range cells {
		cells[i] = '.'
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	from := int(int64(traceBarWidth) * (s.StartUS - lo) / span)
	to := int(int64(traceBarWidth) * (spanEnd(s) - lo) / span)
	if from >= traceBarWidth {
		from = traceBarWidth - 1
	}
	if to >= traceBarWidth {
		to = traceBarWidth - 1
	}
	for i := from; i <= to; i++ {
		cells[i] = '#'
	}
	return string(cells)
}

// fmtUS renders a microsecond offset as a human duration.
func fmtUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}

// fmtAttrs renders span attributes as sorted k=v pairs.
func fmtAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return strings.Join(parts, " ")
}

// obsSummary prints the observability slice of /v1/stats: the
// cluster link counters, worker-pool load, and durable-store health
// that the full stats dump buries under play statistics. A daemon that
// never clustered is said so explicitly rather than silently omitted.
func obsSummary(ctx context.Context, c *client.Client, stdout io.Writer) error {
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	clusterNote := ""
	if st.Cluster == nil {
		clusterNote = "no cluster transport (this daemon has not clustered)"
	}
	return printJSON(stdout, struct {
		UptimeSeconds      float64               `json:"uptime_seconds"`
		SessionsLive       int                   `json:"sessions_live"`
		QueueDepth         int                   `json:"queue_depth"`
		ShedIntervals      int64                 `json:"shed_intervals,omitempty"`
		ClusterPlaysHosted int64                 `json:"cluster_plays_hosted,omitempty"`
		Cluster            *api.ClusterLinkStats `json:"cluster,omitempty"`
		ClusterNote        string                `json:"cluster_note,omitempty"`
		Pool               *api.PoolStats        `json:"pool,omitempty"`
		Store              *api.StoreStats       `json:"store,omitempty"`
	}{
		UptimeSeconds:      st.UptimeSeconds,
		SessionsLive:       st.SessionsLive,
		QueueDepth:         st.QueueDepth,
		ShedIntervals:      st.ShedIntervals,
		ClusterPlaysHosted: st.ClusterPlaysHosted,
		Cluster:            st.Cluster,
		ClusterNote:        clusterNote,
		Pool:               st.Pool,
		Store:              st.Store,
	})
}

// tracesSearch implements `mediatorctl traces`: search the daemon's
// retained-trace ring.
func tracesSearch(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("variant", "", "keep only this theorem variant")
	phase := fs.String("phase", "", "keep only traces that spent time in this phase: avss, open or ba (messages classified by body)")
	minMS := fs.Float64("min-ms", 0, "keep only traces at/above this many milliseconds (the phase's time when -phase is set)")
	within := fs.Duration("within", 0, "keep only traces finished within this window, e.g. 10m (0: all)")
	cursor := fs.Int64("cursor", 0, "resume pagination from a previous page's next_cursor")
	limit := fs.Int("limit", 0, "page size (0: server default)")
	raw := fs.Bool("json", false, "print the raw TracePage instead of the rendered table")
	if _, err := parseMixed(fs, args); err != nil {
		return err
	}
	o := client.TracesOptions{
		Variant: *variant, Phase: *phase, MinMS: *minMS,
		Cursor: *cursor, Limit: *limit,
	}
	if *within > 0 {
		o.Since = time.Now().Add(-*within).UnixMilli()
	}
	page, err := c.Traces(ctx, o)
	if err != nil {
		return err
	}
	if *raw {
		return printJSON(stdout, page)
	}
	renderTraces(stdout, page, *phase)
	return nil
}

// renderTraces prints a TracePage as a table, newest first, with a
// pagination footer. When the search filtered on a phase, that phase's
// folded time gets its own column next to the end-to-end duration.
func renderTraces(w io.Writer, page api.TracePage, phase string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	hdr := "SESSION\tTRACE\tVARIANT\tSTATE\tDUR"
	if phase != "" {
		hdr += "\t" + strings.ToUpper(phase)
	}
	hdr += "\tAGE\tSPANS"
	fmt.Fprintln(tw, hdr)
	for _, t := range page.Traces {
		variant := t.Variant
		if variant == "" {
			variant = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s", t.Session, t.TraceID, variant, t.State, fmtMS(t.DurationMS))
		if phase != "" {
			fmt.Fprintf(tw, "\t%s", fmtMS(t.PhaseMS[phase]))
		}
		age := time.Since(time.UnixMilli(t.FinishedUnixMS)).Round(time.Second)
		fmt.Fprintf(tw, "\t%s\t%d\n", age, t.Spans)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "%d of %d matching trace(s)", len(page.Traces), page.Total)
	if page.NextCursor > 0 {
		fmt.Fprintf(w, "; next page: -cursor %d", page.NextCursor)
	}
	fmt.Fprintln(w)
}

// fmtMS renders a millisecond duration compactly ("0.42ms", "1.2s").
func fmtMS(ms float64) string {
	if ms >= 1000 {
		return fmt.Sprintf("%.1fs", ms/1000)
	}
	return fmt.Sprintf("%.2fms", ms)
}

// sloStatus implements `mediatorctl slo`: the rolling burn-rate state
// of every configured objective.
func sloStatus(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	raw := fs.Bool("json", false, "print the raw SLOView instead of the rendered table")
	if _, err := parseMixed(fs, args); err != nil {
		return err
	}
	v, err := c.SLO(ctx)
	if err != nil {
		return err
	}
	if *raw {
		return printJSON(stdout, v)
	}
	tick := time.Duration(v.IntervalMS) * time.Millisecond
	fmt.Fprintf(stdout, "slo: %d objective(s); windows %s short / %s long (tick %s)\n",
		len(v.Objectives), tick*time.Duration(v.ShortWindow), tick*time.Duration(v.LongWindow), tick)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "OBJECTIVE\tSHORT\tLONG\tSAMPLES\tSTATE\tEXEMPLAR")
	for _, o := range v.Objectives {
		state := "ok"
		if o.Firing {
			state = "FIRING"
		}
		exemplar := "-"
		if o.ExemplarSession != "" {
			exemplar = o.ExemplarSession
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\t%s\t%s\n",
			o.Objective, o.ShortBurn, o.LongBurn, o.Samples, state, exemplar)
	}
	return tw.Flush()
}

func experimentRun(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiment run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 0, "trials per estimate (0: server quick default)")
	seed := fs.String("seed", "", "base seed (empty: server default)")
	maxSteps := fs.Int("max-steps", 0, "per-run step bound (0: server default)")
	noWait := fs.Bool("no-wait", false, "print the job handle instead of waiting")
	pos, err := parseMixed(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		fmt.Fprintln(stderr, "mediatorctl: experiment run needs exactly one experiment name (e1..e7)")
		return errUsage
	}
	name := pos[0]
	seedp, err := parseSeed(*seed, stderr)
	if err != nil {
		return err
	}
	req := api.ExperimentRequest{Experiment: name, Trials: *trials, Seed: seedp, MaxSteps: *maxSteps}
	if *noWait {
		h, err := c.CreateJob(ctx, req)
		if err != nil {
			return err
		}
		return printJSON(stdout, h)
	}
	v, err := c.RunJob(ctx, req)
	if err != nil {
		return err
	}
	return printJSON(stdout, v)
}

func experimentGet(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiment get", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wait := fs.Bool("wait", false, "long-poll until the job is terminal")
	pos, err := parseMixed(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		fmt.Fprintln(stderr, "mediatorctl: experiment get needs exactly one job id (x-...)")
		return errUsage
	}
	var v api.ExperimentJobView
	if *wait {
		v, err = c.WaitJob(ctx, pos[0])
	} else {
		v, err = c.GetJob(ctx, pos[0])
	}
	if err != nil {
		return err
	}
	return printJSON(stdout, v)
}

func eventsTail(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("events tail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	session := fs.String("session", "", "narrow to one session id")
	kind := fs.String("kind", "", "narrow to one namespace: session, experiment, or fleet")
	count := fs.Int("n", 0, "exit after N events (0: stream until interrupted)")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	stream, err := c.StreamEvents(ctx, client.StreamOptions{Session: *session, Kind: *kind})
	if err != nil {
		return err
	}
	defer stream.Close()
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(stream.Hello()); err != nil {
		return err
	}
	for seen := 0; *count == 0 || seen < *count; seen++ {
		e, err := stream.Next()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, io.EOF) {
				return nil // interrupted or farm shut down: a clean end of tail
			}
			return err
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// parseMixed parses a subcommand line that may put positional arguments
// before the flags (the natural "experiment run e7 -trials 2" order):
// leading non-flag tokens are collected, the remainder is flag-parsed,
// and trailing positionals are appended.
func parseMixed(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		pos = append(pos, args[0])
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return nil, errUsage
	}
	return append(pos, fs.Args()...), nil
}

// parseSeed parses an optional -seed flag value ("" means nil: let the
// server pick).
func parseSeed(s string, stderr io.Writer) (*int64, error) {
	if s == "" {
		return nil, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		fmt.Fprintf(stderr, "mediatorctl: bad -seed %q\n", s)
		return nil, errUsage
	}
	return &v, nil
}

// parseTypes parses a comma-separated type profile ("0,1,0").
func parseTypes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad type profile %q (want comma-separated integers)", s)
		}
		out = append(out, v)
	}
	return out, nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/service"
	"asyncmediator/pkg/client"
)

// runTraced is the traced run of one workload. The seconds are split:
// about half go to the workload itself, alternating windows with the
// shims off and on (their ratio is trace_overhead_frac; the untraced
// windows give the proc.* costs); the rest goes to the layer probes,
// each a fixed number of operations on the workload's own play.
func runTraced(e *env, w workload, seconds int, traceDir string) (run, error) {
	ps, err := w.spec()
	if err != nil {
		return run{}, err
	}
	inst, err := setUp(e, w, ps)
	if err != nil {
		return run{}, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	m := metrics{}
	ctx := context.Background()

	// The workload, shims off and on in turn.
	const rounds = 2
	slot := time.Duration(seconds) * time.Second / (2 * 2 * rounds)
	var (
		res     run
		plays   [2]int // completed plays with shims off, on
		elapsed [2]time.Duration
		cost    procCost
		base    int
	)
	hosted := inst.hosted()
	for r := 0; r < rounds; r++ {
		for on := 0; on < 2; on++ {
			e.tr.on.Store(on == 1)
			before := readProc()
			loop := runLoop(ctx, e, inst.play, base, 0, slot)
			after := readProc()
			e.tr.on.Store(false)
			base += loop.attempted
			res.Attempted += loop.attempted
			res.Failed += loop.failed
			if loop.firstErr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: first failed play: %v\n", w.name, loop.firstErr)
			}
			plays[on] += len(loop.samples)
			elapsed[on] += loop.elapsed
			if on == 0 {
				c := procDelta(before, after, len(loop.samples))
				cost.allocsPerPlay += c.allocsPerPlay / rounds
				cost.allocKBPerPlay += c.allocKBPerPlay / rounds
				cost.gcCPUFrac += c.gcCPUFrac / rounds
				cost.cpuSPerPlay += c.cpuSPerPlay / rounds
			}
		}
	}
	res.Samples = plays[0] + plays[1]
	res.Correct = res.Failed == 0 && plays[0] > 0 && plays[1] > 0
	if err := inst.settle(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		res.Correct = false
	}
	if !res.Correct {
		return res, fmt.Errorf("traced windows: %d of %d plays failed", res.Failed, res.Attempted)
	}
	untraced := float64(plays[0]) / elapsed[0].Seconds()
	traced := float64(plays[1]) / elapsed[1].Seconds()
	m.set("trace_overhead_frac", 1-traced/untraced, "ratio")
	m.set("proc.allocs_per_play", cost.allocsPerPlay, "count")
	m.set("proc.alloc_kb_per_play", cost.allocKBPerPlay, "KB")
	m.set("proc.gc_cpu_frac", cost.gcCPUFrac, "ratio")
	m.set("proc.cpu_s_per_play", cost.cpuSPerPlay, "s")

	// The serving probe: on the workload's own farm, or for a workload
	// without one (lib-n8) on a memory-only farm hosting the same play.
	var (
		f        *farm
		spec     = ps.api
		viaHTTP  *overheads // what the traced windows' hosted plays saw around the run
		storeRec int
		walPer   float64
	)
	if hosted != nil {
		f, spec, viaHTTP = hosted.coord, hosted.spec, &hosted.viaHTTP
	} else {
		if f, err = bootFarm(e, service.Config{Workers: e.clients}, false); err != nil {
			return res, err
		}
		defer f.close(e.wd)
	}
	if err := probeServe(m, e, f, &ps, spec, w.probePlays, viaHTTP); err != nil {
		return res, err
	}
	st, err := f.cl[0].Stats(ctx)
	if err != nil {
		return res, err
	}
	if st.Store != nil && st.Sessions > 0 {
		walPer = float64(st.Store.WALAppends) / float64(st.Sessions)
	}
	m.set("store.wal_appends_per_play", walPer, "count")
	clusterResend := -1.0
	if st.Cluster != nil && st.Cluster.Sent > 0 {
		clusterResend = float64(st.Cluster.Resent) / float64(st.Cluster.Sent)
	}
	// A terminal view, as the farm would spill it, sizes the store probe's
	// records; a durable farm's directory has the real ones.
	page, err := f.cl[0].ListSessions(ctx, client.ListSessionsOptions{State: string(api.StateDone), Limit: 1})
	if err != nil || len(page.Sessions) == 0 {
		return res, fmt.Errorf("list one session: %v", err)
	}
	if b, err := json.Marshal(page.Sessions[0]); err == nil {
		storeRec = len(b) + 1
	}
	if d, ok := inst.(*durableInst); ok {
		inst.close()
		closed = true
		if storeRec, err = spilledBytes(d.dir); err != nil {
			return res, err
		}
	}

	// The replay: the same play through core.Run under the timing shims.
	// lib-n8's traced windows already are that.
	if hosted != nil {
		e.tr.on.Store(true)
		for i := 0; i < w.probePlays; i++ {
			leave := e.wd.enter("replay", playTimeout)
			_, err := ps.runShimmed(e.tr, inputFor(e.seed, i, ps.api.N, ps.binary), i)
			leave()
			if err != nil {
				return res, fmt.Errorf("replay of play %d: %w", i, err)
			}
		}
		e.tr.on.Store(false)
	}
	if err := replayMetrics(m, e.tr.snapshot()); err != nil {
		return res, err
	}

	// The layer probes.
	if err := probeKernels(m, e.seed); err != nil {
		return res, err
	}
	payloads, err := capturePayloads(&ps, inputFor(e.seed, 0, ps.api.N, ps.binary))
	if err != nil {
		return res, err
	}
	frames, err := probeWire(m, payloads)
	if err != nil {
		return res, err
	}
	if err := probeCluster(m, e, frames); err != nil {
		return res, err
	}
	if clusterResend >= 0 {
		// The farm clustered for real: its own link counters say how
		// often the play's frames were resent.
		m.set("cluster.resend_frac", clusterResend, "ratio")
	}
	if err := probeStore(m, e, storeRec); err != nil {
		return res, err
	}
	if err := probeTraceCost(m, e, &ps, w.probePlays); err != nil {
		return res, err
	}
	m.set("proc.peak_rss_mb", peakRSSMB(), "MB")

	path, err := e.tr.write(traceDir, w.name, e.seed)
	if err != nil {
		return res, err
	}
	printSelfTable(w.name, path, e.tr.snapshot())
	res.Metrics = m
	return res, nil
}

// busyTotal sums one span name over the trace.
type busyTotal struct {
	ns    int64
	count int
}

// replayMetrics turns the core.run spans into the async.* and proto.*
// metrics: per play, the time in the scheduler, in each protocol family's
// handlers, and what is left — the runtime's own.
func replayMetrics(m metrics, spans []span) error {
	var (
		plays, msgs, steps int
		wall, sched, busy  int64
		fam                = map[string]*busyTotal{}
	)
	for _, s := range spans {
		d := s.End - s.Start
		switch {
		case s.Name == spanRun:
			plays++
			wall += d
			msgs += s.Count
		case s.Name == "async.sched":
			sched += d
			steps += s.Count
		case strings.HasPrefix(s.Name, "proto."):
			busy += d
			f := fam[s.Name]
			if f == nil {
				f = new(busyTotal)
				fam[s.Name] = f
			}
			f.ns += d
			f.count += s.Count
		}
	}
	if plays == 0 || msgs == 0 {
		return fmt.Errorf("trace holds %d %s spans and %d messages", plays, spanRun, msgs)
	}
	n := float64(plays)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	m.set("async.runtime_ms_per_play", ms(wall-sched-busy), "ms")
	m.set("async.sched_ms_per_play", ms(sched), "ms")
	m.set("async.us_per_msg", float64(wall-busy)/1e3/float64(msgs), "us")
	m.set("async.steps_per_play", float64(steps)/n, "count")
	m.set("async.msgs_per_play", float64(msgs)/n, "count")
	m.set("proto.busy_ms_per_play", ms(busy), "ms")
	for _, name := range famNames[:famOther] {
		f := fam["proto."+name]
		if f == nil {
			f = new(busyTotal)
		}
		m.set("proto."+name+".busy_ms_per_play", ms(f.ns), "ms")
		m.set("proto."+name+".msgs_per_play", float64(f.count)/n, "count")
	}
	return nil
}

// printSelfTable prints where the traced plays' time went: for each kind
// of root span, the self time per span name beneath it, per play and as
// a share of those roots.
func printSelfTable(workload, path string, spans []span) {
	fmt.Printf("%-12s trace: %d spans in %s\n", workload, len(spans), path)
	for _, t := range selfTables(spans) {
		fmt.Printf("%-12s   %d %s spans, mean %.3f ms; self times sum to %.1f%% of them\n",
			workload, t.plays, t.root, float64(t.total)/1e6/float64(t.plays), 100*t.coverage)
		for _, r := range t.rows {
			fmt.Printf("%-12s     self %-16s %9.3f ms/play %6.1f%%\n",
				workload, r.name, float64(r.self)/1e6/float64(t.plays), 100*float64(r.self)/float64(t.total))
		}
	}
}

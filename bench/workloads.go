package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/service"
	"asyncmediator/pkg/client"
)

// Watchdog budgets: nothing the benchmark waits on may hang the pipeline.
const (
	playTimeout  = 60 * time.Second
	closeTimeout = 30 * time.Second
)

// playSpec is the play a workload repeats, in both of its forms: the
// /v1 session spec a farm hosts and the core parameters the library
// runs. The traced run uses the second to replay a hosted play under
// the timing shims.
type playSpec struct {
	api    api.SessionSpec // Game, N, K, T, Variant, Scheduler filled in
	params core.Params
	check  *checker
	binary bool // binary type profiles (consensus) vs the single-type section64
}

// newPlaySpec compiles the library form the way the farm compiles the
// same spec: core.Section64Params for section64, the majority circuit
// with an all-zero punishment profile for consensus.
func newPlaySpec(gameName string, n, k, t int, variant, scheduler string) (playSpec, error) {
	ps := playSpec{
		api:    api.SessionSpec{Game: gameName, N: n, K: k, T: t, Variant: variant, Scheduler: scheduler},
		binary: gameName == "consensus",
	}
	v, err := core.ParseVariant(variant)
	if err != nil {
		return ps, err
	}
	if ps.check, err = newChecker(gameName, n); err != nil {
		return ps, err
	}
	switch gameName {
	case "section64":
		ps.params, err = core.Section64Params(n, k, t, v)
	case "consensus":
		ps.params = core.Params{
			Game: game.ConsensusGame(n), Circuit: ps.check.majority, K: k, T: t,
			Variant: v, Approach: game.ApproachAH,
			Punishment: make(game.Profile, n), Epsilon: 0.1,
		}
	default:
		err = fmt.Errorf("unknown game %q", gameName)
	}
	return ps, err
}

// runLib plays the spec once through core.Run and checks the output.
// decorate, when set, installs shims on the run's seams (Wrap, Scheduler).
func (ps *playSpec) runLib(in playInput, decorate func(*core.RunConfig)) (msgs int, err error) {
	sched, err := async.SchedulerByName(ps.api.Scheduler, in.seed)
	if err != nil {
		return 0, err
	}
	cfg := core.RunConfig{
		Params: ps.params, Types: in.gameTypes(), Seed: in.seed,
		Scheduler: sched, MaxSteps: 50_000_000,
	}
	if decorate != nil {
		decorate(&cfg)
	}
	prof, res, err := core.Run(cfg)
	if err != nil {
		return 0, err
	}
	if res.Deadlocked {
		return 0, errors.New("play deadlocked")
	}
	got := make([]int, len(prof))
	for p, a := range prof {
		got[p] = int(a)
	}
	if err := ps.check.profile(got, in.types); err != nil {
		return 0, err
	}
	return res.Stats.MessagesSent, nil
}

// runShimmed is runLib under the timing shim; the play's spans go to t.
func (ps *playSpec) runShimmed(t *tracer, in playInput, play int) (time.Duration, error) {
	shim := &playShim{}
	start := time.Now()
	msgs, err := ps.runLib(in, shim.install)
	end := time.Now()
	if err == nil {
		t.add(shim.spans(t, play, msgs, start, end))
	}
	return end.Sub(start), err
}

// env is what one benchmark run hands every workload.
type env struct {
	seed    int64
	clients int // closed-loop clients = farm workers = min(nproc, 4)
	tmp     string
	wd      *watchdog
	tr      *tracer // nil on an end-to-end run: no shim is installed at all
}

// instance is a set-up workload. play runs iteration i on behalf of
// closed-loop client k, checks every output, and returns how long the
// client-visible play took.
type instance interface {
	play(ctx context.Context, k, i int) (latency time.Duration, err error)
	// settle runs once the loop has drained: it cross-checks the farm's
	// own accounting against what the benchmark observed.
	settle(ctx context.Context) error
	// hosted is the farm side of a hosted workload, nil for lib-n8.
	hosted() *farmInst
	close()
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name   string
	warmup int
	// probePlays is how many plays each fixed-count phase of the traced
	// run makes (serving probe, replay, trace-cost probe).
	probePlays int
	spec       func() (playSpec, error)
	boot       func(e *env, ps playSpec) (instance, error)
}

var workloads = []workload{
	{
		name: "sim-n5", warmup: 200, probePlays: 100,
		spec: func() (playSpec, error) { return newPlaySpec("section64", 5, 0, 1, "4.1", "roundrobin") },
		boot: func(e *env, ps playSpec) (instance, error) {
			f, err := bootFarm(e, service.Config{Workers: e.clients}, true)
			if err != nil {
				return nil, err
			}
			return &farmInst{e: e, ps: ps, spec: api.SessionSpec{}, coord: f}, nil
		},
	},
	{
		name: "lib-n8", warmup: 6, probePlays: 6,
		spec: func() (playSpec, error) { return newPlaySpec("section64", 8, 1, 1, "4.4", "random") },
		boot: func(e *env, ps playSpec) (instance, error) { return &libInst{e: e, ps: ps}, nil },
	},
	{
		name: "cluster-n5", warmup: 30, probePlays: 30,
		spec: func() (playSpec, error) { return newPlaySpec("section64", 5, 0, 1, "4.1", "roundrobin") },
		boot: func(e *env, ps playSpec) (instance, error) {
			peer, err := bootFarm(e, service.Config{Workers: e.clients}, false)
			if err != nil {
				return nil, err
			}
			coord, err := bootFarm(e, service.Config{Workers: e.clients}, true)
			if err != nil {
				peer.close(e.wd)
				return nil, err
			}
			spec := api.SessionSpec{Backend: "wire", Peers: []api.PeerSpec{
				{Index: 3, Addr: peer.url}, {Index: 4, Addr: peer.url},
			}}
			return &farmInst{e: e, ps: ps, spec: spec, coord: coord, peer: peer}, nil
		},
	},
	{
		name: "durable-mix", warmup: 20, probePlays: 100,
		spec: func() (playSpec, error) { return newPlaySpec("consensus", 4, 1, 0, "4.2", "roundrobin") },
		boot: bootDurable,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// farm is one in-process daemon: a session farm behind its own loopback
// HTTP server, as cmd/mediatord would run it.
type farm struct {
	svc *service.Service
	srv *http.Server
	url string
	tp  *http.Transport  // shared by the clients; one keep-alive connection each
	cl  []*client.Client // one per closed-loop client, so request ids tell them apart
	// submitted counts plays this farm accepted; each reaches a terminal
	// state and so, eventually, the farm's own session count.
	submitted atomic.Int64
}

// bootFarm starts a farm. The handler shim goes on only when the run is
// traced and the farm is the one the clients talk to.
func bootFarm(e *env, cfg service.Config, clientFacing bool) (*farm, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := svc.Handler()
	if e.tr != nil && clientFacing {
		h = e.tr.wrapHandler(h)
	}
	f := &farm{
		svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		// The closed loop never has more requests in flight than clients.
		tp: &http.Transport{MaxIdleConnsPerHost: e.clients},
	}
	go func() { _ = f.srv.Serve(ln) }() // returns when close() closes the server
	hc := &http.Client{Transport: f.tp}
	for k := 0; k < e.clients; k++ {
		c, err := client.New(f.url, client.WithHTTPClient(hc), client.WithRetries(0),
			client.WithRequestIDPrefix(clientPrefix(k)))
		if err != nil {
			f.close(e.wd)
			return nil, err
		}
		f.cl = append(f.cl, c)
	}
	return f, nil
}

// close stops the listener and drains the farm under the close watchdog.
func (f *farm) close(wd *watchdog) {
	defer wd.enter("farm close "+f.url, closeTimeout)()
	f.tp.CloseIdleConnections()
	_ = f.srv.Close()
	f.svc.Close()
}

// farmInst drives plays through a coordinator farm's /v1 API; peer is
// the co-hosting daemon of cluster-n5 (nil otherwise).
type farmInst struct {
	e     *env
	ps    playSpec
	spec  api.SessionSpec // what the client posts (zero: the farm's default spec)
	coord *farm
	peer  *farm
	// viaHTTP collects, while the tracer is on, how much longer each play
	// took the client than the farm says it ran.
	viaHTTP overheads
}

func (fi *farmInst) hosted() *farmInst { return fi }

// hostedPlay is PlaySession spelled out — create, submit types, wait for
// the terminal view — with the clock read between the calls so a traced
// run can attribute them. The untraced path does the same three calls.
func (fi *farmInst) hostedPlay(ctx context.Context, k, i int) (api.SessionView, time.Duration, error) {
	in := inputFor(fi.e.seed, i, fi.ps.api.N, fi.ps.binary)
	spec := fi.spec
	spec.Seed = &in.seed
	c := fi.coord.cl[k]
	ctx, cancel := context.WithTimeout(ctx, playTimeout)
	defer cancel()

	var at [4]time.Time
	at[0] = time.Now()
	h, err := c.CreateSession(ctx, spec)
	if err != nil {
		return api.SessionView{}, 0, err
	}
	at[1] = time.Now()
	if _, err := c.SubmitTypes(ctx, h.ID, in.types); err != nil {
		return api.SessionView{}, 0, err
	}
	fi.coord.submitted.Add(1)
	at[2] = time.Now()
	v, err := c.WaitSession(ctx, h.ID)
	if err != nil {
		return api.SessionView{}, 0, err
	}
	at[3] = time.Now()
	if err := fi.ps.check.view(v, in.types); err != nil {
		return v, 0, err
	}
	if fi.e.tr.enabled() {
		fi.e.tr.add(hostedSpans(fi.e.tr, k, i, at, v.DurationSeconds))
		fi.viaHTTP.add(at[3].Sub(at[0]), runDuration(v))
	}
	return v, at[3].Sub(at[0]), nil
}

// hostedSpans lays one hosted play out as a tree: the play, its three
// client calls, and the handler interval inside each call. The farm's own
// run of the play is known only by its duration; it ended when the wait
// handler returned, and it began while the submit call was still on its
// way back, so it is cut into pieces, each a child of the innermost span
// it overlaps. What remains as a call's self time is the client waiting
// while the play was not running.
func hostedSpans(t *tracer, k, play int, at [4]time.Time, runSeconds float64) []span {
	out := []span{{Name: "play", Play: play, Parent: -1, Start: t.ns(at[0]), End: t.ns(at[3])}}
	runEnd := out[0].End
	for c, name := range [3]string{"create", "submit", "wait"} {
		call := len(out)
		out = append(out, span{Name: "http." + name, Play: play, Parent: 0, Start: t.ns(at[c]), End: t.ns(at[c+1])})
		iv, ok := t.takeHandler(k)
		for ok && iv.start.Before(at[c]) { // a stale interval of an earlier, failed call
			iv, ok = t.takeHandler(k)
		}
		if !ok {
			continue
		}
		out = append(out, span{Name: "service." + name, Play: play, Parent: call, Start: t.ns(iv.start), End: t.ns(iv.end)})
		if name == "wait" {
			runEnd = t.ns(iv.end)
		}
	}
	return placeRun(out, 0, runEnd-int64(runSeconds*1e9), runEnd)
}

// placeRun adds the interval [from, to) to the tree under node as "run"
// spans: the parts inside a child go to that child, the rest becomes
// node's own child. Siblings never overlap, and were appended in start
// order.
func placeRun(spans []span, node int, from, to int64) []span {
	if from < spans[node].Start {
		from = spans[node].Start
	}
	if to > spans[node].End {
		to = spans[node].End
	}
	piece := func(a, b int64) {
		if b > a {
			spans = append(spans, span{Name: "run", Play: spans[node].Play, Parent: node, Start: a, End: b})
		}
	}
	at := from
	for ch, existing := node+1, len(spans); ch < existing && at < to; ch++ {
		c := spans[ch]
		if c.Parent != node || c.End <= at || c.Start >= to {
			continue
		}
		piece(at, c.Start)
		spans = placeRun(spans, ch, at, to)
		at = c.End
	}
	piece(at, to)
	return spans
}

func (fi *farmInst) play(ctx context.Context, k, i int) (time.Duration, error) {
	_, lat, err := fi.hostedPlay(ctx, k, i)
	return lat, err
}

// settle reads /v1/stats only now, after the loop has drained: the farm
// publishes a terminal state before it accounts the play, so mid-run the
// two can disagree. Even here the last plays may still be in that gap,
// hence the short poll.
func (fi *farmInst) settle(ctx context.Context) error {
	plays := fi.coord.submitted.Load()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := fi.coord.cl[0].Stats(ctx)
		if err != nil {
			return fmt.Errorf("/v1/stats: %w", err)
		}
		if st.Failed != 0 || st.Deadlocked != 0 {
			return fmt.Errorf("/v1/stats counts %d failed and %d deadlocked sessions", st.Failed, st.Deadlocked)
		}
		if st.Sessions == plays {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/v1/stats counts %d completed sessions, the benchmark saw %d", st.Sessions, plays)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (fi *farmInst) close() {
	fi.coord.close(fi.e.wd)
	if fi.peer != nil {
		fi.peer.close(fi.e.wd)
	}
}

// libInst is lib-n8: no farm, no HTTP; each client calls core.Run.
type libInst struct {
	e  *env
	ps playSpec
}

func (li *libInst) play(_ context.Context, _, i int) (time.Duration, error) {
	defer li.e.wd.enter("core.Run", playTimeout)()
	in := inputFor(li.e.seed, i, li.ps.api.N, li.ps.binary)
	if !li.e.tr.enabled() {
		start := time.Now()
		_, err := li.ps.runLib(in, nil)
		return time.Since(start), err
	}
	return li.ps.runShimmed(li.e.tr, in, i)
}

func (li *libInst) settle(context.Context) error { return nil }
func (li *libInst) hosted() *farmInst            { return nil }
func (li *libInst) close()                       {}

// Sizes of durable-mix. The populated sessions outnumber the live cache
// many times over, so a seeded "old" id is almost surely served by the
// store, and they fit the farm's default 4,096-record trace ring.
const (
	durableLive     = 64
	durableTraceWin = 1000 // GetSessionTrace targets the newest this-many sessions
	durableListEach = 50   // every this-many iterations fetch a ListSessions page
	durableListPage = 50
)

// durablePopulate is how many sessions set-up plays before the restart (a
// variable so the smoke test can shrink it).
var durablePopulate = 1000

// durableInst is durable-mix: one farm on a data directory; every
// iteration is a play (write path) followed by reads of older sessions.
type durableInst struct {
	farmInst
	dir  string
	mu   sync.Mutex
	done []doneRec // every finished session, in completion order
}

type doneRec struct {
	id     string
	action int // the unanimous action the play resolved to
}

func bootDurable(e *env, ps playSpec) (instance, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("durable-%d", time.Now().UnixNano()))
	cfg := service.Config{Workers: e.clients, DataDir: dir, MaxLiveSessions: durableLive}
	f, err := bootFarm(e, cfg, true)
	if err != nil {
		return nil, err
	}
	di := &durableInst{farmInst: farmInst{e: e, ps: ps, spec: ps.api, coord: f}, dir: dir}
	// Populate through the same client path, then restart the farm on the
	// directory: the measured part runs against a recovered store.
	res := runLoop(context.Background(), e, di.populate, populateBase, durablePopulate, 0)
	f.close(e.wd)
	if res.failed > 0 {
		return nil, fmt.Errorf("populating the store: %d of %d plays failed: %w", res.failed, res.attempted, res.firstErr)
	}
	if f, err = bootFarm(e, cfg, true); err != nil {
		return nil, err
	}
	di.coord = f
	if rec, ok := f.svc.StoreRecovery(); !ok || rec.SnapshotRecords+rec.WALRecords < durablePopulate {
		f.close(e.wd)
		return nil, fmt.Errorf("reopened store recovered %+v, want at least %d records", rec, durablePopulate)
	}
	return di, nil
}

// populateBase keeps set-up plays' inputs apart from warm-up and measured ones.
const populateBase = 2 * warmBase

func (di *durableInst) populate(ctx context.Context, k, i int) (time.Duration, error) {
	v, lat, err := di.hostedPlay(ctx, k, i)
	if err == nil {
		di.record(v)
	}
	return lat, err
}

func (di *durableInst) record(v api.SessionView) {
	di.mu.Lock()
	di.done = append(di.done, doneRec{id: v.ID, action: v.Profile[0]})
	di.mu.Unlock()
}

func (di *durableInst) play(ctx context.Context, k, i int) (time.Duration, error) {
	v, lat, err := di.hostedPlay(ctx, k, i)
	if err != nil {
		return lat, err
	}
	di.mu.Lock()
	n := len(di.done)
	rng := pickRNG(di.e.seed, i)
	// Older than the live cache (store read) and among the newest
	// durableTraceWin (inside the trace ring), both settled long ago.
	old := di.done[rng.Intn(n-2*durableLive)]
	lo := n - durableTraceWin
	if lo < 0 {
		lo = 0
	}
	recent := di.done[lo+rng.Intn(n-lo-2*di.e.clients)]
	di.mu.Unlock()
	di.record(v)

	c := di.coord.cl[k]
	ctx, cancel := context.WithTimeout(ctx, playTimeout)
	defer cancel()
	got, err := c.GetSession(ctx, old.id)
	if err != nil {
		return lat, fmt.Errorf("get %s: %w", old.id, err)
	}
	if got.State != api.StateDone || len(got.Profile) != di.ps.api.N || got.Profile[0] != old.action {
		return lat, fmt.Errorf("get %s: state %s profile %v, recorded action %d", old.id, got.State, got.Profile, old.action)
	}
	tv, err := c.GetSessionTrace(ctx, recent.id)
	if err != nil {
		return lat, fmt.Errorf("trace %s: %w", recent.id, err)
	}
	if tv.TraceID == "" || len(tv.Spans) == 0 {
		return lat, fmt.Errorf("trace %s is empty", recent.id)
	}
	if i%durableListEach == 0 {
		off := rng.Intn(n - durableListPage)
		page, err := c.ListSessions(ctx, client.ListSessionsOptions{State: string(api.StateDone), Offset: off, Limit: durableListPage})
		if err != nil {
			return lat, fmt.Errorf("list offset %d: %w", off, err)
		}
		if len(page.Sessions) != durableListPage {
			return lat, fmt.Errorf("list offset %d: %d sessions, want %d", off, len(page.Sessions), durableListPage)
		}
		for _, s := range page.Sessions {
			if s.State != api.StateDone {
				return lat, fmt.Errorf("list state=done returned %s in state %s", s.ID, s.State)
			}
		}
	}
	return lat, nil
}

// loopResult is what a closed loop observed; the counts are the
// benchmark's own, never the farm's.
type loopResult struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

type playFunc func(ctx context.Context, k, i int) (time.Duration, error)

// runLoop is the closed loop: e.clients clients, each starting its next
// play when its previous one returned. With count > 0 it runs exactly
// count iterations; otherwise it starts no new play once length has
// passed and lets the ones in flight finish.
func runLoop(ctx context.Context, e *env, play playFunc, base, count int, length time.Duration) loopResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for k := 0; k < e.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mine []sample
			var attempted, failed int
			var firstErr error
			for {
				i := int(next.Add(1) - 1)
				if count > 0 && i >= count || count == 0 && time.Since(start) >= length {
					break
				}
				attempted++
				began := time.Now()
				lat, err := play(ctx, k, base+i)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				now := time.Now()
				mine = append(mine, sample{end: now.Sub(start), latency: lat, cycle: now.Sub(began)})
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

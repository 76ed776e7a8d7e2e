package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/cluster"
	"asyncmediator/internal/core"
	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/rs"
	"asyncmediator/internal/service"
	"asyncmediator/internal/shamir"
	"asyncmediator/internal/store"
	"asyncmediator/internal/wire"
	"asyncmediator/pkg/client"
)

// This file holds the layer probes of the traced run: each measures one
// module from outside, by calling its public functions on inputs taken
// from the workload's own play. A probe runs a fixed number of
// operations, so it costs the same on every commit.

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// sink keeps the kernels' results alive so the compiler cannot drop the
// calls being timed.
var sink field.Element

// timeOp reports the mean microseconds of one call of op over reps calls.
func timeOp(reps int, op func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		op()
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(reps)
}

// probeKernels times the field/poly/rs/shamir kernels at the two sizes
// the workloads play at: (n=5, degree 1) and (n=8, degree 2), with the
// error budget those sizes leave (n >= deg + 2e + 1). The shares are
// honest, as in every play the benchmark runs.
func probeKernels(m metrics, seed int64) error {
	const reps = 3000
	for _, size := range []struct{ n, deg int }{{5, 1}, {8, 2}} {
		n, deg := size.n, size.deg
		bad := (n - deg - 1) / 2
		rng := rand.New(rand.NewSource(seed))
		shares, err := shamir.Split(rng, field.Element(1234567), n, deg)
		if err != nil {
			return err
		}
		pts := make([]poly.Point, n)
		for i, s := range shares {
			pts[i] = poly.Point{X: s.X, Y: s.Y}
		}
		tag := fmt.Sprintf(".n%dd%d", n, deg)
		var kerr error
		m.set("kernels.split_us"+tag, timeOp(reps, func() {
			s, err := shamir.Split(rng, field.Element(7), n, deg)
			if err != nil {
				kerr = err
				return
			}
			sink += s[0].Y
		}), "us")
		m.set("kernels.reconstruct_us"+tag, timeOp(reps, func() {
			v, err := shamir.RobustReconstruct(shares, deg, bad)
			if err != nil {
				kerr = err
			}
			sink += v
		}), "us")
		m.set("kernels.oec_us"+tag, timeOp(reps, func() {
			p, ok := rs.OEC(pts, deg, bad)
			if !ok {
				kerr = fmt.Errorf("rs.OEC failed on honest points (n=%d deg=%d)", n, deg)
				return
			}
			sink += p.Constant()
		}), "us")
		m.set("kernels.interpolate_us"+tag, timeOp(reps, func() {
			p, err := poly.Interpolate(pts[:deg+1])
			if err != nil {
				kerr = err
				return
			}
			sink += p.Constant()
		}), "us")
		if kerr != nil {
			return kerr
		}
		if v, err := shamir.RobustReconstruct(shares, deg, bad); err != nil || v != 1234567 {
			return fmt.Errorf("kernels: reconstructed %d (err %v), want 1234567", v, err)
		}
	}
	return nil
}

// captureProc records every payload its process sends, through the
// async.HookedEnv seam.
type captureProc struct {
	inner async.Process
	sent  *[]any
}

func (c captureProc) hook(_ async.PID, payload any) (any, bool) {
	*c.sent = append(*c.sent, payload)
	return payload, true
}

func (c captureProc) Start(env *async.Env) { c.inner.Start(async.HookedEnv(env, c.hook)) }
func (c captureProc) Deliver(env *async.Env, msg async.Message) {
	c.inner.Deliver(async.HookedEnv(env, c.hook), msg)
}

// capturePayloads plays the spec once in the simulator and returns every
// message payload the play sent, in send order.
func capturePayloads(ps *playSpec, in playInput) ([]any, error) {
	var sent []any
	msgs, err := ps.runLib(in, func(cfg *core.RunConfig) {
		cfg.Wrap = func(_ int, p async.Process) async.Process { return captureProc{inner: p, sent: &sent} }
	})
	if err != nil {
		return nil, err
	}
	if len(sent) != msgs {
		return nil, fmt.Errorf("captured %d payloads, the runtime counted %d sent", len(sent), msgs)
	}
	return sent, nil
}

// probeWire replays one play's payloads through the process-boundary
// codec and returns them encoded, for the cluster probe to stream.
func probeWire(m metrics, payloads []any) ([][]byte, error) {
	const rounds = 4
	enc := make([][]byte, len(payloads))
	var size int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, p := range payloads {
			b, err := wire.EncodePayload(p)
			if err != nil {
				return nil, fmt.Errorf("wire: encode %T: %w", p, err)
			}
			enc[i] = b
		}
	}
	encode := time.Since(start)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for i, b := range enc {
			if _, err := wire.DecodePayload(b); err != nil {
				return nil, fmt.Errorf("wire: decode payload %d: %w", i, err)
			}
		}
	}
	decode := time.Since(start)
	runtime.ReadMemStats(&ms1)
	for _, b := range enc {
		size += len(b)
	}
	// The codec must hand back what went in: a decoded payload encodes to
	// the same bytes again (gob omits nil and empty slices alike, so bytes
	// compare where reflect.DeepEqual would not).
	for i, b := range enc {
		got, err := wire.DecodePayload(b)
		if err != nil {
			return nil, err
		}
		again, err := wire.EncodePayload(got)
		if err != nil || !bytes.Equal(again, b) {
			return nil, fmt.Errorf("wire: payload %d (%T) changed in the round trip: %v", i, payloads[i], err)
		}
	}
	n := float64(rounds * len(payloads))
	m.set("wire.encode_us_per_msg", float64(encode.Nanoseconds())/1e3/n, "us")
	m.set("wire.decode_us_per_msg", float64(decode.Nanoseconds())/1e3/n, "us")
	m.set("wire.bytes_per_msg", float64(size)/float64(len(payloads)), "bytes")
	m.set("wire.allocs_per_msg", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	return enc, nil
}

// probeCluster streams the encoded payloads of one play, several times
// over, one way between two cluster transports on loopback.
func probeCluster(m metrics, e *env, frames [][]byte) error {
	const rounds = 8
	mk := func(self int) (*cluster.Transport, error) {
		return cluster.New(cluster.Config{Self: self, N: 2, ClusterID: "bench"})
	}
	a, err := mk(0)
	if err != nil {
		return err
	}
	b, err := mk(1)
	if err != nil {
		a.Close()
		return err
	}
	defer e.wd.enter("cluster probe", closeTimeout)()
	sent := make(chan struct{})
	defer func() {
		// Closing first turns a Send blocked on a full queue into a no-op,
		// so the sender always ends.
		a.Close()
		b.Close()
		<-sent
	}()
	a.SetPeerAddr(1, b.Addr())
	b.SetPeerAddr(0, a.Addr())

	total := rounds * len(frames)
	start := time.Now()
	go func() {
		defer close(sent)
		for r := 0; r < rounds; r++ {
			for _, f := range frames {
				// Send owns the buffer it is given.
				a.Send(1, append([]byte(nil), f...))
			}
		}
	}()
	timeout := time.After(closeTimeout)
	for got := 0; got < total; got++ {
		select {
		case f := <-b.Inbox():
			if want := frames[got%len(frames)]; len(f.Payload) != len(want) {
				return fmt.Errorf("cluster: frame %d arrived with %d bytes, sent %d", got, len(f.Payload), len(want))
			}
		case <-timeout:
			return fmt.Errorf("cluster: %d of %d frames arrived in %v", got, total, closeTimeout)
		}
	}
	elapsed := time.Since(start)
	st := a.Stats()
	m.set("cluster.us_per_frame", float64(elapsed.Nanoseconds())/1e3/float64(total), "us")
	m.set("cluster.frames_per_s", float64(total)/elapsed.Seconds(), "1/s")
	m.set("cluster.resend_frac", float64(st.Resent)/float64(st.Sent), "ratio")
	return nil
}

// probeStore times the durable store directly on records of the size the
// workload spills.
func probeStore(m metrics, e *env, recBytes int) error {
	const records = 1000
	dir := filepath.Join(e.tmp, fmt.Sprintf("storeprobe-%d", time.Now().UnixNano()))
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	rec := make([]byte, recBytes)
	rand.New(rand.NewSource(e.seed)).Read(rec)
	key := func(i int) string { return fmt.Sprintf("s-%06d", i) }
	err = func() error {
		start := time.Now()
		for i := 0; i < records; i++ {
			if err := st.Put(key(i), rec); err != nil {
				return err
			}
		}
		m.set("store.put_us", float64(time.Since(start).Nanoseconds())/1e3/records, "us")
		rng := rand.New(rand.NewSource(e.seed))
		start = time.Now()
		for i := 0; i < records; i++ {
			if b, ok := st.Get(key(rng.Intn(records))); !ok || len(b) != recBytes {
				return fmt.Errorf("store: Get returned %d bytes (found=%v), want %d", len(b), ok, recBytes)
			}
		}
		m.set("store.get_us", float64(time.Since(start).Nanoseconds())/1e3/records, "us")
		start = time.Now()
		if err := st.Compact(); err != nil {
			return err
		}
		m.set("store.compact_ms", float64(time.Since(start).Nanoseconds())/1e6, "ms")
		return nil
	}()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if st, err = store.Open(store.Config{Dir: dir}); err != nil {
		return err
	}
	defer st.Close()
	if st.Len() != records {
		return fmt.Errorf("store: reopened with %d records, wrote %d", st.Len(), records)
	}
	m.set("store.recover_ms", float64(st.Metrics().ReplayTime.Nanoseconds())/1e6, "ms")
	return nil
}

// spilledBytes is the mean size of the session records a closed durable
// farm left in dir.
func spilledBytes(dir string) (int, error) {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var n, total int
	err = st.Scan("s-", func(_ string, data []byte) error {
		n++
		total += len(data)
		return nil
	})
	if err != nil || n == 0 {
		return 0, fmt.Errorf("store: scanning %s found %d session records: %v", dir, n, err)
	}
	return total / n, nil
}

// inProcess drives one play through the farm's Go API — CreateSession,
// SubmitTypes, Done — with no HTTP in between, and returns the latency
// the caller saw and the run duration the farm reports.
func inProcess(svc *service.Service, ps *playSpec, spec api.SessionSpec, in playInput) (lat, run time.Duration, view api.SessionView, err error) {
	spec.Seed = &in.seed
	start := time.Now()
	sess, err := svc.CreateSession(spec)
	if err != nil {
		return 0, 0, view, err
	}
	if _, err := svc.SubmitTypes(sess.ID, in.gameTypes()); err != nil {
		return 0, 0, view, err
	}
	select {
	case <-sess.Done():
	case <-time.After(playTimeout):
		return 0, 0, view, fmt.Errorf("session %s not done after %v", sess.ID, playTimeout)
	}
	view = sess.Snapshot()
	lat = time.Since(start)
	if err := ps.check.view(view, in.types); err != nil {
		return 0, 0, view, err
	}
	return lat, runDuration(view), view, nil
}

// runDuration is how long the farm says the play itself ran.
func runDuration(v api.SessionView) time.Duration {
	return time.Duration(v.DurationSeconds * float64(time.Second))
}

// overheads collects, per play, how much longer the caller waited than
// the farm says the play ran.
type overheads struct {
	mu sync.Mutex
	ms []float64
}

func (o *overheads) add(lat, run time.Duration) {
	o.mu.Lock()
	o.ms = append(o.ms, float64(lat-run)/float64(time.Millisecond))
	o.mu.Unlock()
}

// probeServe measures the serving layers around a play on farm f, which
// hosts spec: the same plays driven over /v1 and through the Go API, and
// the three read endpoints.
func probeServe(m metrics, e *env, f *farm, ps *playSpec, spec api.SessionSpec, plays int, viaHTTP *overheads) error {
	ctx := context.Background()
	if viaHTTP == nil {
		// The workload itself has no farm (lib-n8): drive the probe farm
		// over /v1 here. Hosted workloads pass what their traced windows saw.
		viaHTTP = &overheads{}
		fi := &farmInst{e: e, ps: *ps, spec: spec, coord: f}
		res := runLoop(ctx, e, func(ctx context.Context, k, i int) (time.Duration, error) {
			v, lat, err := fi.hostedPlay(ctx, k, i)
			if err == nil {
				viaHTTP.add(lat, runDuration(v))
			}
			return lat, err
		}, probeBase, plays, 0)
		if res.failed > 0 {
			return fmt.Errorf("serve probe over /v1: %w", res.firstErr)
		}
	}
	direct := &overheads{}
	var last api.SessionView
	res := runLoop(ctx, e, func(_ context.Context, _, i int) (time.Duration, error) {
		lat, run, v, err := inProcess(f.svc, ps, spec, inputFor(e.seed, i, ps.api.N, ps.binary))
		if err == nil {
			direct.add(lat, run)
			direct.mu.Lock()
			last = v
			direct.mu.Unlock()
		}
		return lat, err
	}, probeBase+plays, plays, 0)
	if res.failed > 0 {
		return fmt.Errorf("serve probe through the Go API: %w", res.firstErr)
	}
	serve, svc := median(viaHTTP.ms), median(direct.ms)
	m.set("serve.overhead_ms", serve, "ms")
	m.set("service.overhead_ms", svc, "ms")
	m.set("http.overhead_ms", serve-svc, "ms")

	const reads = 200
	c := f.cl[0]
	var gets, traces []float64
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		v, err := c.GetSession(ctx, last.ID)
		if err != nil || v.State != api.StateDone {
			return fmt.Errorf("get %s: state %q: %v", last.ID, v.State, err)
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		tv, err := c.GetSessionTrace(ctx, last.ID)
		if err != nil || len(tv.Spans) == 0 {
			return fmt.Errorf("trace %s: %d spans: %v", last.ID, len(tv.Spans), err)
		}
		traces = append(traces, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var lists []float64
	for i := 0; i < reads/10; i++ {
		t0 := time.Now()
		page, err := c.ListSessions(ctx, client.ListSessionsOptions{State: string(api.StateDone), Limit: durableListPage})
		if err != nil || len(page.Sessions) == 0 {
			return fmt.Errorf("list: %d sessions: %v", len(page.Sessions), err)
		}
		lists = append(lists, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m.set("http.get_us", median(gets), "us")
	m.set("http.trace_us", median(traces), "us")
	m.set("http.list_ms", median(lists), "ms")
	return nil
}

// probeBase keeps the probes' inputs apart from every other phase's.
const probeBase = 3 * warmBase

// probeTraceCost compares two memory-only farms hosting the workload's
// spec, one with the farm's own per-play trace collection off, driven
// through the Go API in alternating rounds.
func probeTraceCost(m metrics, e *env, ps *playSpec, plays int) error {
	var rate [2]float64 // plays/s with tracing on, off
	var farms [2]*service.Service
	for i := range farms {
		svc, err := service.New(service.Config{Workers: e.clients, DisableTracing: i == 1})
		if err != nil {
			return err
		}
		defer func() {
			defer e.wd.enter("trace-cost farm close", closeTimeout)()
			svc.Close()
		}()
		farms[i] = svc
	}
	const rounds = 2
	var elapsed [2]time.Duration
	for r := 0; r < rounds; r++ {
		for i, svc := range farms {
			res := runLoop(context.Background(), e, func(_ context.Context, _, j int) (time.Duration, error) {
				lat, _, _, err := inProcess(svc, ps, ps.api, inputFor(e.seed, j, ps.api.N, ps.binary))
				return lat, err
			}, probeBase+r*plays, plays, 0)
			if res.failed > 0 {
				return fmt.Errorf("trace-cost probe: %w", res.firstErr)
			}
			elapsed[i] += res.elapsed
		}
	}
	for i := range rate {
		rate[i] = float64(rounds*plays) / elapsed[i].Seconds()
	}
	m.set("obs.trace_cost_frac", 1-rate[0]/rate[1], "ratio")
	return nil
}

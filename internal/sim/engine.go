package sim

import (
	"fmt"
	"runtime"
	"sync"

	"asyncmediator/internal/async"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/pool"
)

// Engine executes experiment grids by sharding each (params x trial) grid
// across a bounded worker pool — the same pool implementation
// (internal/pool) that runs the session farm's plays, so the experiment
// tables and the farm share one execution path. Per-trial seeds are
// deterministic (core.TrialSeed: Seed0 + trial) and every accumulator is
// either a per-shard integer/histogram (merged in shard order; order
// cannot matter) or a per-trial slot reduced sequentially in trial order
// (where float summation order would matter), so a sweep's tables are
// byte-identical no matter how many workers drain the pool.
type Engine struct {
	p       *pool.Pool
	owned   bool
	workers int
}

// NewEngine starts an engine with its own pool of `workers` goroutines
// (non-positive: GOMAXPROCS). Close releases them.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{p: pool.New(workers, 256), owned: true, workers: workers}
}

// EngineOn wraps an existing pool — the session farm passes its own, so
// GET /experiments sweeps compete with hosted plays for the same workers
// instead of oversubscribing the host.
func EngineOn(p *pool.Pool) *Engine {
	return &Engine{p: p, workers: p.Workers()}
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Close releases the engine's pool if it owns one.
func (e *Engine) Close() {
	if e.owned {
		e.p.Close()
	}
}

// shardTrials is the number of consecutive trials per shard job. Small,
// because one trial is a whole MPC simulation (milliseconds) while a
// shard job costs a channel hop (microseconds): fine shards keep workers
// balanced when trial costs vary. It is a function of nothing: shard
// boundaries depend only on the trial count, never on the worker count,
// which keeps the merge order (and therefore the output bits) identical
// across any parallelism level.
const shardTrials = 2

// forSpans splits [0,n) into contiguous spans of at most `span` indices
// and runs fn for each on the pool, blocking until all complete. fn
// receives its shard index and half-open range; distinct shards touch
// distinct state, so the hot path needs no locks. If the pool is draining
// (farm shutdown mid-sweep), remaining shards run inline on the caller.
func (e *Engine) forSpans(n, span int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if span < 1 {
		span = 1
	}
	var wg sync.WaitGroup
	for start := 0; start < n; start += span {
		shard, lo, hi := start/span, start, start+span
		if hi > n {
			hi = n
		}
		wg.Add(1)
		if err := e.p.Submit(func() {
			defer wg.Done()
			fn(shard, lo, hi)
		}); err != nil {
			fn(shard, lo, hi)
			wg.Done()
		}
	}
	wg.Wait()
}

// numSpans returns how many shards forSpans will create.
func numSpans(n, span int) int {
	if n <= 0 {
		return 0
	}
	if span < 1 {
		span = 1
	}
	return (n + span - 1) / span
}

// honestAcc is one shard's private accumulator for honestStats: outcome
// histograms and integer counters, all order-independent under merge.
type honestAcc struct {
	ct, md *game.Outcome
	unan   int
	msgs   int
	err    error
}

// honestStats runs `o.Trials` honest cheap-talk plays and the mediator
// reference, sharded across the pool, returning the unanimity rate, the
// implementation distance and the mean utility of player 0.
func (e *Engine) honestStats(p core.Params, o Options) (unanimity, dist, value float64, msgs int, err error) {
	n := p.Game.N
	types := make([]game.Type, n)
	accs := make([]honestAcc, numSpans(o.Trials, shardTrials))
	e.forSpans(o.Trials, shardTrials, func(shard, lo, hi int) {
		acc := &accs[shard]
		acc.ct, acc.md = game.NewOutcome(), game.NewOutcome()
		for s := lo; s < hi; s++ {
			talk, ideal, res, rerr := core.HonestTrial(p, types, core.TrialSeed(o.Seed0, s), o.MaxSteps)
			if rerr != nil {
				acc.err = fmt.Errorf("trial %d: %w", s, rerr)
				return
			}
			acc.ct.Add(talk)
			acc.md.Add(ideal)
			acc.msgs += res.Stats.MessagesSent
			if isUnanimous(talk) {
				acc.unan++
			}
		}
	})
	ct, md := game.NewOutcome(), game.NewOutcome()
	unan, totalMsgs := 0, 0
	for i := range accs {
		if accs[i].err != nil {
			return 0, 0, 0, 0, accs[i].err
		}
		ct.Merge(accs[i].ct)
		md.Merge(accs[i].md)
		unan += accs[i].unan
		totalMsgs += accs[i].msgs
	}
	u := p.Game.ExpectedUtility(types, ct)
	return float64(unan) / float64(o.Trials), game.Dist(ct, md), u[0], totalMsgs / o.Trials, nil
}

// devAcc is one shard's private accumulator for deviationValue.
type devAcc struct {
	out *game.Outcome
	err error
}

// deviationValue runs trials with the override processes installed —
// sharded like honestStats — and returns the mean utility of `observer`
// (a coalition member).
func (e *Engine) deviationValue(p core.Params, o Options, observer int,
	mkOverride func(seed int64) (map[int]async.Process, error)) (float64, error) {
	n := p.Game.N
	types := make([]game.Type, n)
	accs := make([]devAcc, numSpans(o.Trials, shardTrials))
	e.forSpans(o.Trials, shardTrials, func(shard, lo, hi int) {
		acc := &accs[shard]
		acc.out = game.NewOutcome()
		for s := lo; s < hi; s++ {
			seed := core.TrialSeed(o.Seed0, s)
			ov, err := mkOverride(seed)
			if err != nil {
				acc.err = fmt.Errorf("trial %d: %w", s, err)
				return
			}
			prof, _, err := core.Run(core.RunConfig{Params: p, Types: types, Seed: seed, Override: ov, MaxSteps: o.MaxSteps})
			if err != nil {
				acc.err = fmt.Errorf("trial %d: %w", s, err)
				return
			}
			acc.out.Add(prof)
		}
	})
	out := game.NewOutcome()
	for i := range accs {
		if accs[i].err != nil {
			return 0, accs[i].err
		}
		out.Merge(accs[i].out)
	}
	u := p.Game.ExpectedUtility(types, out)
	return u[observer], nil
}

// meanValue runs one float-valued trial function across the pool and
// averages in trial order. Unlike the count accumulators, float sums are
// order-sensitive, so each trial writes its own slot and the fold is a
// single sequential pass — still lock-free, still byte-identical at any
// worker count.
func (e *Engine) meanValue(trials int, fn func(trial int) (float64, error)) (float64, error) {
	vals := make([]float64, trials)
	errs := make([]error, trials)
	e.forSpans(trials, shardTrials, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			vals[s], errs[s] = fn(s)
		}
	})
	sum := 0.0
	for s := 0; s < trials; s++ {
		if errs[s] != nil {
			return 0, fmt.Errorf("trial %d: %w", s, errs[s])
		}
		sum += vals[s]
	}
	return sum / float64(trials), nil
}

// Experiment is one entry of the paper's evaluation suite.
type Experiment struct {
	// ID is the CLI / HTTP identifier ("e1".."e8").
	ID string `json:"id"`
	// Title is the one-line claim the experiment regenerates.
	Title string `json:"title"`

	run func(*Engine, Options) (*Table, error)
}

// catalog is the experiment registry, in presentation order.
var catalog = []Experiment{
	{ID: "e1", Title: "Theorem 4.1: exact implementation, no punishment (n > 4k+4t)", run: (*Engine).e1},
	{ID: "e2", Title: "Theorem 4.2: epsilon implementation, no punishment (n > 3k+3t)", run: (*Engine).e2},
	{ID: "e3", Title: "Theorem 4.4: exact with (k+t)-punishment wills (n > 3k+4t)", run: (*Engine).e3},
	{ID: "e4", Title: "Theorem 4.5: epsilon with (2k+2t)-punishment wills (n > 2k+3t)", run: (*Engine).e4},
	{ID: "e5", Title: "message complexity O(nNc): sweeps over n, c, and R", run: (*Engine).e5},
	{ID: "e6", Title: "Section 6.4: leaky vs minimally informative mediator", run: (*Engine).e6},
	{ID: "e7", Title: "synchronous (R1) vs asynchronous cheap talk crossover", run: (*Engine).e7},
	{ID: "e8", Title: "substrate ablation: RBC / BA / ACS message costs", run: (*Engine).e8},
}

// Catalog lists the available experiments in order.
func Catalog() []Experiment {
	out := make([]Experiment, len(catalog))
	copy(out, catalog)
	return out
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.ID
	}
	return out
}

// Run executes one experiment by id. Per-cell failures land in the
// table's Errors; the returned error is reserved for structural problems
// (an unknown id).
func (e *Engine) Run(id string, o Options) (*Table, error) {
	for _, exp := range catalog {
		if exp.ID == id {
			tab, err := exp.run(e, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			tab.ID = id
			return tab, nil
		}
	}
	return nil, fmt.Errorf("sim: unknown experiment %q (want %v)", id, IDs())
}

// Sweep runs the given experiments (nil, or "all" anywhere in the list:
// every one) and bundles the tables into a Report.
func (e *Engine) Sweep(ids []string, o Options) (*Report, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if id == "all" {
			ids = IDs()
			break
		}
	}
	r := &Report{Seed0: o.Seed0, Trials: o.Trials, MaxSteps: o.MaxSteps}
	for _, id := range ids {
		tab, err := e.Run(id, o)
		if err != nil {
			return nil, err
		}
		r.Tables = append(r.Tables, tab)
	}
	return r, nil
}

// runSerial backs the package-level E1..E8 compatibility wrappers.
func runSerial(id string, o Options) (*Table, error) {
	e := NewEngine(1)
	defer e.Close()
	return e.Run(id, o)
}

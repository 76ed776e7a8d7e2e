package service

import (
	"fmt"
	"time"

	"asyncmediator/internal/game"
	"asyncmediator/internal/sim"
)

// BenchConfig sizes a throughput measurement of the farm.
type BenchConfig struct {
	// Sessions is the total number of plays to push through the farm.
	Sessions int
	// Workers bounds concurrency (0: GOMAXPROCS).
	Workers int
	// Spec is the per-session configuration; zero value means the default
	// serving configuration. Spec.Seed is ignored — each session gets a
	// distinct deterministic seed.
	Spec Spec
	// BaseSeed anchors the per-session seeds (default 1).
	BaseSeed int64
	// DataDir enables the durable store for the measured farm, so the
	// persistence overhead lands in the same numbers as the in-memory
	// baseline (the <15% acceptance line).
	DataDir string
	// MaxLiveSessions bounds the measured farm's in-memory cache.
	MaxLiveSessions int
	// DisableTracing measures the farm without per-play trace collection —
	// the untraced baseline the tracing-overhead acceptance line (<=5%)
	// compares against.
	DisableTracing bool
}

// BenchResult is the measured throughput.
type BenchResult struct {
	Sessions        int
	Failed          int64
	Elapsed         time.Duration
	SessionsPerSec  float64
	MessagesPerSec  float64
	TotalMessages   int64
	TotalSteps      int64
	MeanMsgsPerPlay float64
	Outcomes        map[string]int64
}

// Bench drives `cfg.Sessions` plays through a fresh farm via the same
// registry/pool/accounting path the HTTP API uses, and reports aggregate
// throughput. It is the measurement behind BenchmarkServiceThroughput and
// cmd/mediatord's -bench mode.
func Bench(cfg BenchConfig) (*BenchResult, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	svc, err := New(Config{
		Workers:         cfg.Workers,
		QueueDepth:      cfg.Sessions + 1,
		BaseSeed:        cfg.BaseSeed,
		DataDir:         cfg.DataDir,
		MaxLiveSessions: cfg.MaxLiveSessions,
		DisableTracing:  cfg.DisableTracing,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close() // idempotent; also covers the error returns below
	spec := cfg.Spec
	spec.Seed = nil
	normalizeSpec(&spec)

	// Validate once so a bad spec fails before the clock starts.
	params, err := buildParams(spec)
	if err != nil {
		return nil, err
	}
	types := make([]game.Type, params.Game.N)

	start := time.Now()
	last := make([]*Session, 0, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		sess, err := svc.CreateSession(spec)
		if err != nil {
			return nil, err
		}
		if _, err := svc.SubmitTypes(sess.ID, types); err != nil {
			return nil, err
		}
		last = append(last, sess)
	}
	for _, sess := range last {
		<-sess.Done()
	}
	elapsed := time.Since(start)
	tot := svc.Stats().StatsTotals
	// Done implies counted; an under-count here would skew every figure
	// below, so it is an error, not a smaller number.
	if tot.Sessions != int64(cfg.Sessions) {
		return nil, fmt.Errorf("service: bench drove %d sessions but stats count %d", cfg.Sessions, tot.Sessions)
	}

	res := &BenchResult{
		Sessions:      cfg.Sessions,
		Failed:        tot.Failed,
		Elapsed:       elapsed,
		TotalMessages: tot.MessagesSent,
		TotalSteps:    tot.Steps,
		Outcomes:      tot.Outcomes,
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		res.SessionsPerSec = float64(tot.Sessions) / secs
		res.MessagesPerSec = float64(tot.MessagesSent) / secs
	}
	if tot.Sessions > 0 {
		res.MeanMsgsPerPlay = float64(tot.MessagesSent) / float64(tot.Sessions)
	}
	return res, nil
}

// Table renders the result in the experiment-table format of package sim,
// so farm throughput lands in the same perf trajectory as E1-E8.
func (r *BenchResult) Table(cfg BenchConfig) *sim.Table {
	spec := cfg.Spec
	normalizeSpec(&spec)
	t := &sim.Table{
		Title:  "ES: service throughput (session farm)",
		Header: []string{"game", "backend", "n", "k", "t", "variant", "sessions", "sessions/sec", "msgs/sec", "msgs/play"},
	}
	t.AddRow(spec.Game, spec.Backend, spec.N, spec.K, spec.T, spec.Variant,
		r.Sessions, r.SessionsPerSec, r.MessagesPerSec, r.MeanMsgsPerPlay)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d workers, %v elapsed, %d failed", cfgWorkers(cfg), r.Elapsed.Round(time.Millisecond), r.Failed))
	return t
}

func cfgWorkers(cfg BenchConfig) int {
	c := Config{Workers: cfg.Workers}
	c.normalize()
	return c.Workers
}

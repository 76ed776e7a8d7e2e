package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/sim"
	"asyncmediator/internal/store"
)

// ErrUnknownExperiment marks a job body naming an experiment the
// engine's catalog does not know; it maps to not_found.
var ErrUnknownExperiment = errors.New("service: unknown experiment")

// The wire shapes of experiment jobs come from the api contract.
type (
	// ExpRequest is the body of POST /v1/jobs (api.ExperimentRequest).
	// Zero values take sim.QuickOptions defaults.
	ExpRequest = api.ExperimentRequest
	// ExpView is a snapshot of an experiment job (api.ExperimentJobView)
	// — the shape served by GET /v1/jobs/{id} and persisted to the store.
	ExpView = api.ExperimentJobView
)

// tableView renders an engine result in the wire contract's Table shape
// (a field-for-field copy: the JSON encodings are identical, so persisted
// records from earlier daemon generations still decode).
func tableView(t *sim.Table) *api.Table {
	if t == nil {
		return nil
	}
	v := &api.Table{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes}
	for _, ce := range t.Errors {
		v.Errors = append(v.Errors, api.CellError{Cell: ce.Cell, Err: ce.Err})
	}
	return v
}

// ExpJob is one asynchronous experiment sweep hosted by the farm — the
// session treatment for GET /v1/jobs/{id}: created by POST /v1/jobs,
// queued on the shared worker pool, pollable and streamable like any
// session, persisted at creation and completion.
type ExpJob struct {
	ID  string
	Exp string

	mu       sync.Mutex
	opts     sim.Options
	state    State
	table    *sim.Table
	err      error
	created  time.Time
	finished time.Time

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// Done returns a channel closed when the job completes or fails.
func (j *ExpJob) Done() <-chan struct{} { return j.done }

// begin moves the job to Running.
func (j *ExpJob) begin() sim.Options {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	return j.opts
}

// finish records the outcome and closes Done.
func (j *ExpJob) finish(table *sim.Table, err error) {
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		j.state = StateDone
		j.table = table
	}
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Snapshot returns a consistent view of the job.
func (j *ExpJob) Snapshot() ExpView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := ExpView{
		ID:         j.ID,
		Experiment: j.Exp,
		State:      j.state,
		Trials:     j.opts.Trials,
		Seed0:      j.opts.Seed0,
		MaxSteps:   j.opts.MaxSteps,
	}
	if j.state == StateDone {
		v.Table = tableView(j.table)
	}
	if j.state.Terminal() {
		v.DurationSeconds = j.finished.Sub(j.created).Seconds()
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// stateNow returns the current state.
func (j *ExpJob) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// validExperiment reports whether id names a catalog experiment.
func validExperiment(id string) bool {
	for _, known := range sim.IDs() {
		if id == known {
			return true
		}
	}
	return false
}

// CreateExperiment registers a persisted async experiment job. The job's
// driver is a goroutine (bounded by the farm's queue depth), not a pool
// worker: the sharded engine fans the sweep's trials out onto the shared
// pool, and a driver occupying a worker slot while waiting for its own
// shards would deadlock a small farm. On driver saturation the job is
// recorded as failed (an honest audit trail of the rejection) and
// ErrQueueFull is returned so the client backs off.
func (s *Service) CreateExperiment(req ExpRequest) (*ExpJob, error) {
	if !validExperiment(req.Experiment) {
		return nil, fmt.Errorf("%w %q (want %v)", ErrUnknownExperiment, req.Experiment, sim.IDs())
	}
	o := sim.QuickOptions()
	if req.Trials > 0 {
		o.Trials = req.Trials
	}
	if req.MaxSteps > 0 {
		o.MaxSteps = req.MaxSteps
	}
	if req.Seed != nil {
		o.Seed0 = *req.Seed
	}

	s.expMu.Lock()
	s.expNext++
	id := s.expRecs.Key(s.expNext)
	job := &ExpJob{
		ID:      id,
		Exp:     req.Experiment,
		opts:    o,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	s.exps[id] = job
	s.expMu.Unlock()

	// Persist and announce the queued job before it can start running, so
	// the store and the event stream see transitions in lifecycle order.
	s.persisted(s.expRecs.Put(id, job.Snapshot()))
	s.publish(kindExperiment, id, StateQueued, nil)
	if int(s.expPending.Add(1)) > s.cfg.QueueDepth {
		s.expPending.Add(-1)
		job.finish(nil, fmt.Errorf("service: experiment rejected: %w", ErrQueueFull))
		v := job.Snapshot()
		s.persisted(s.expRecs.Put(v.ID, v))
		s.evictExp(id)
		s.publish(kindExperiment, v.ID, v.State, v)
		return nil, ErrQueueFull
	}
	s.jobs.Add(1)
	go s.runExp(job)
	return job, nil
}

// runExp drives one experiment job: it holds a driver goroutine while the
// engine shards the sweep's trials across the shared worker pool.
func (s *Service) runExp(job *ExpJob) {
	defer s.jobs.Done()
	defer s.expPending.Add(-1)
	o := job.begin()
	s.publish(kindExperiment, job.ID, StateRunning, nil)
	table, err := s.engine.Run(job.Exp, o)
	job.finish(table, err)
	v := job.Snapshot()
	s.persisted(s.expRecs.Put(v.ID, v))
	s.evictExp(job.ID)
	s.publish(kindExperiment, v.ID, v.State, v)
}

// evictExp drops a terminal job from memory once the store can serve it —
// without this, a long-running daemon leaks one result table per job.
// Memory-only farms keep their jobs (there is nowhere to spill).
func (s *Service) evictExp(id string) {
	if s.st == nil {
		return
	}
	s.expMu.Lock()
	delete(s.exps, id)
	s.expMu.Unlock()
}

// ExperimentJob returns the in-memory job with the given id.
func (s *Service) ExperimentJob(id string) (*ExpJob, bool) {
	s.expMu.Lock()
	defer s.expMu.Unlock()
	j, ok := s.exps[id]
	return j, ok
}

// LookupExperiment returns a view of the job from either tier: the
// in-memory map first, then the durable store.
func (s *Service) LookupExperiment(id string) (ExpView, bool) {
	return lookup(s.ExperimentJob, s.expRecs, id)
}

// recoverExperiments replays persisted experiment jobs at boot: the id
// watermark advances past every stored job, and a job that was queued or
// running when the daemon died is rewritten as failed — its pool slot did
// not survive the restart, and the record should say so rather than claim
// a progress that stopped.
func (s *Service) recoverExperiments() {
	s.expNext, _ = s.expRecs.Watermark()
	s.expRecs.Each(func(e store.Entry[ExpView]) {
		if !e.Val.State.Terminal() {
			e.Val.State = StateFailed
			e.Val.Error = "interrupted by daemon restart"
			s.persisted(s.expRecs.Put(e.Val.ID, e.Val))
		}
	})
}

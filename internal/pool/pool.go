// Package pool is the bounded worker pool shared by the session farm
// (internal/service) and the experiment engine (internal/sim): a fixed
// set of goroutines draining a fixed-depth job queue. Both subsystems
// execute their work — farm sessions, experiment trial shards — through
// this one code path, so concurrency behaviour (queue bounds, drain
// semantics) is defined exactly once.
package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull signals saturation on a non-blocking submit; callers
// surface backpressure to their clients and may retry after backoff.
var ErrQueueFull = errors.New("pool: queue full")

// ErrClosed marks a submit to a pool that is draining or drained.
var ErrClosed = errors.New("pool: closed")

// Job is one unit of work.
type Job func()

// queued is one enqueued job plus its submission time, so the pool can
// account for how long work sat behind the workers.
type queued struct {
	j   Job
	enq time.Time
}

// Pool is a bounded worker pool.
type Pool struct {
	jobs    chan queued
	workers int
	wg      sync.WaitGroup

	active     atomic.Int64 // workers currently inside a job
	completed  atomic.Int64 // jobs finished
	shed       atomic.Int64 // TrySubmit rejections on a full queue
	waitMicros atomic.Int64 // cumulative queue wait, microseconds

	// mu is a reader/writer guard on the closed flag: submitters hold the
	// read side across their channel send so Close (the writer) cannot
	// close the job channel underneath an in-flight send.
	mu     sync.RWMutex
	closed bool
}

// Stats is a snapshot of the pool's load counters.
type Stats struct {
	// Workers is the fixed worker count; Active is how many are inside a
	// job right now; QueueLen is the jobs waiting behind them.
	Workers  int
	Active   int
	QueueLen int
	// Completed counts finished jobs; Shed counts TrySubmit rejections.
	Completed int64
	Shed      int64
	// QueueWait is the cumulative time jobs spent queued before a worker
	// picked them up.
	QueueWait time.Duration
}

// Stats snapshots the pool's counters; safe from any goroutine.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:   p.workers,
		Active:    int(p.active.Load()),
		QueueLen:  len(p.jobs),
		Completed: p.completed.Load(),
		Shed:      p.shed.Load(),
		QueueWait: time.Duration(p.waitMicros.Load()) * time.Microsecond,
	}
}

// New starts `workers` goroutines with a queue of depth `queue`.
// Non-positive arguments are clamped to 1.
func New(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	p := &Pool{jobs: make(chan queued, queue), workers: workers}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for q := range p.jobs {
				p.waitMicros.Add(time.Since(q.enq).Microseconds())
				p.active.Add(1)
				q.j()
				p.active.Add(-1)
				p.completed.Add(1)
			}
		}()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// QueueLen reports how many jobs are queued behind the workers right
// now — the input of the farm's load-shedding readiness gate.
func (p *Pool) QueueLen() int { return len(p.jobs) }

// TrySubmit enqueues a job without blocking. It returns ErrQueueFull when
// the queue is at capacity (saturation: the caller owns backoff) and
// ErrClosed after Close.
func (p *Pool) TrySubmit(j Job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.jobs <- queued{j: j, enq: time.Now()}:
		return nil
	default:
		p.shed.Add(1)
		return fmt.Errorf("%w (%d jobs pending)", ErrQueueFull, cap(p.jobs))
	}
}

// Submit enqueues a job, blocking while the queue is full. It only errors
// (ErrClosed) once the pool is shut down.
func (p *Pool) Submit(j Job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	p.jobs <- queued{j: j, enq: time.Now()}
	return nil
}

// Close stops intake and waits for queued and in-flight jobs to finish —
// the drain half of graceful shutdown. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

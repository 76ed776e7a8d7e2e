package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"time"
)

// watchdog bounds everything the benchmark waits on — a play, a farm
// Close, the run as a whole. A guard that outlives its budget means the
// system under test hung: the watchdog dumps every goroutine, removes
// the run's temporary files and exits non-zero without printing a
// result, so the pipeline sees a failed run instead of a stuck one.
type watchdog struct {
	mu      sync.Mutex
	guards  map[int]guard
	next    int
	cleanup func()
	stop    chan struct{}
	done    chan struct{}
}

type guard struct {
	what     string
	deadline time.Time
}

func newWatchdog(cleanup func()) *watchdog {
	w := &watchdog{guards: make(map[int]guard), cleanup: cleanup, stop: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

// enter arms a guard and returns the function that disarms it.
func (w *watchdog) enter(what string, budget time.Duration) (leave func()) {
	w.mu.Lock()
	id := w.next
	w.next++
	w.guards[id] = guard{what, time.Now().Add(budget)}
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		delete(w.guards, id)
		w.mu.Unlock()
	}
}

func (w *watchdog) run() {
	defer close(w.done)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-tick.C:
			w.mu.Lock()
			for _, g := range w.guards {
				if now.After(g.deadline) {
					w.mu.Unlock()
					w.fire(g.what)
				}
			}
			w.mu.Unlock()
		}
	}
}

func (w *watchdog) fire(what string) {
	fmt.Fprintf(os.Stderr, "bench: watchdog: %s exceeded its budget; every play still outstanding counts as failed\n", what)
	_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
	w.cleanup()
	os.Exit(3)
}

// close stops the watchdog goroutine and waits for it.
func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

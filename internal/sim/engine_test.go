package sim

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncmediator/internal/core"
)

// TestSerialParallelByteIdentical is the engine's core guarantee: the
// same Seed0 produces byte-identical JSON reports whether the trials run
// on one worker or sharded across many. The ids cover every accumulator
// kind: shard-merged histograms (e1), nested small sweeps (e5), ordered
// float folds (e6) and verdict reduction (e7).
func TestSerialParallelByteIdentical(t *testing.T) {
	ids := []string{"e1", "e5", "e6", "e7"}
	o := Options{Trials: 6, Seed0: 7, MaxSteps: 30_000_000}

	sweep := func(workers int) []byte {
		t.Helper()
		e := NewEngine(workers)
		defer e.Close()
		rep, err := e.Sweep(ids, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := sweep(1)
	parallel := sweep(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("serial and parallel reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestShardMergeRace exercises the shard-merge path under the race
// detector: many workers concurrently fill per-shard accumulators over a
// shared Params/Game/Circuit while the merge folds them.
func TestShardMergeRace(t *testing.T) {
	e := NewEngine(8)
	defer e.Close()
	o := Options{Trials: 16, Seed0: 3, MaxSteps: 30_000_000}
	p, err := buildParams(5, 1, 0, core.Exact41)
	if err != nil {
		t.Fatal(err)
	}
	unan, _, val, msgs, err := e.honestStats(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if unan < 0.99 || val < 1.0 || msgs == 0 {
		t.Fatalf("implausible stats: unan=%v val=%v msgs=%d", unan, val, msgs)
	}
}

// TestPerCellErrorsSurfaceInJSON pins the error-reporting contract: a
// cell that cannot complete (here: an absurd MaxSteps ceiling kills every
// trial) lands in Table.Errors with an "error" status row, and the sweep
// still returns the rest of the grid instead of aborting.
func TestPerCellErrorsSurfaceInJSON(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	tab, err := e.Run("e1", Options{Trials: 2, Seed0: 1, MaxSteps: 50})
	if err != nil {
		t.Fatalf("per-cell failures must not abort the sweep: %v", err)
	}
	if len(tab.Errors) == 0 {
		t.Fatalf("expected cell errors at MaxSteps=50:\n%s", tab.Render())
	}
	if len(findRows(tab, 3, "error")) == 0 {
		t.Fatalf("expected error-status rows:\n%s", tab.Render())
	}
	// Below-bound rejections are still ordinary rows, not errors.
	if len(findRows(tab, 3, "below bound: rejected")) == 0 {
		t.Fatalf("rejected rows must survive alongside errors:\n%s", tab.Render())
	}
	s := tab.Render()
	if !strings.Contains(s, "error: k=") {
		t.Fatalf("rendered table must list cell errors:\n%s", s)
	}
}

// TestForSpansRunsShardsConcurrently proves the dispatch is genuinely
// parallel — with 4 workers, at least 3 shards must be in flight at once.
// Each shard waits until three have started (blocked shards release the
// scheduler, so this holds even on one CPU); a serial engine never gets
// there, and its shards give up at the deadline instead of hanging.
func TestForSpansRunsShardsConcurrently(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	three := make(chan struct{})
	var mu sync.Mutex
	started, cur, peak := 0, 0, 0
	e.forSpans(8, 1, func(_, _, _ int) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		if started++; started == 3 {
			close(three)
		}
		mu.Unlock()
		select {
		case <-three:
		case <-ctx.Done():
		}
		mu.Lock()
		cur--
		mu.Unlock()
	})
	if peak < 3 {
		t.Fatalf("peak concurrency %d with 4 workers; shards are not parallel", peak)
	}
}

// TestCatalogAndRunDispatch checks the registry: every advertised id
// runs, and unknown ids fail with a structural error.
func TestCatalogAndRunDispatch(t *testing.T) {
	ids := IDs()
	if len(ids) != 7 || ids[0] != "e1" || ids[6] != "e7" {
		t.Fatalf("unexpected catalog ids: %v", ids)
	}
	for _, exp := range Catalog() {
		if exp.Title == "" {
			t.Fatalf("experiment %s has no title", exp.ID)
		}
	}
	e := NewEngine(2)
	defer e.Close()
	if _, err := e.Run("e99", QuickOptions()); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	tab, err := e.Run("e7", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "e7" {
		t.Fatalf("table id %q, want e7", tab.ID)
	}
}

package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smokeEnv is a run environment for the test: temporary files under the
// test's own directory, a watchdog that fails the process like the real
// one would.
func smokeEnv(t *testing.T, seed int64, traced bool) *env {
	t.Helper()
	tmp := t.TempDir()
	wd := newWatchdog(func() { _ = os.RemoveAll(tmp) })
	t.Cleanup(wd.close)
	e := &env{seed: seed, clients: 2, tmp: tmp, wd: wd}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// shrink cuts the fixed counts so the whole smoke stays well under 30 s;
// the code paths are the full ones.
func shrink(t *testing.T) {
	t.Helper()
	reps, populate := setupReps, durablePopulate
	setupReps, durablePopulate = 1, 4*durableLive
	saved := append([]workload(nil), workloads...)
	for i := range workloads {
		workloads[i].warmup, workloads[i].probePlays = 4, 4
		if workloads[i].name == "lib-n8" { // its plays are ~50x the others'
			workloads[i].warmup, workloads[i].probePlays = 2, 2
		}
	}
	t.Cleanup(func() {
		setupReps, durablePopulate = reps, populate
		copy(workloads, saved)
	})
}

// TestSmoke runs every workload end to end and traced, and holds the
// output against BENCHMARK.json: each workload and metric the manifest
// names is reported once, with the manifest's unit and a finite value,
// and no play fails.
func TestSmoke(t *testing.T) {
	shrink(t)
	mf, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	var simMsgs []float64
	for _, wdef := range mf.Workloads {
		w, ok := workloadByName(wdef.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", wdef.Name)
		}
		for _, traced := range []bool{false, true} {
			var (
				res  run
				defs = mf.EndToEnd
			)
			if traced {
				defs = mf.PerLayer
				res, err = runTraced(smokeEnv(t, 1, true), w, 1, t.TempDir())
			} else {
				res, err = runEndToEnd(smokeEnv(t, 1, false), w, 2)
			}
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v, %d failed of %d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced=%v): %d metrics reported, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s of BENCHMARK.json is not reported", w.name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s reported in %q, BENCHMARK.json says %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.Name, m.Value)
				}
			}
			if traced && w.name == "sim-n5" {
				simMsgs = append(simMsgs, res.Metrics["async.msgs_per_play"].Value)
				// A second traced run at the same seed replays the same plays.
				again, err := runTraced(smokeEnv(t, 1, true), w, 1, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				simMsgs = append(simMsgs, again.Metrics["async.msgs_per_play"].Value)
			}
		}
	}
	if len(simMsgs) != 2 || simMsgs[0] != simMsgs[1] || simMsgs[0] == 0 {
		t.Errorf("async.msgs_per_play of two sim-n5 runs at one seed: %v, want two equal counts", simMsgs)
	}
}

// TestSeedChangesInputs: the same seed gives the same inputs, another
// seed gives others.
func TestSeedChangesInputs(t *testing.T) {
	gen := func(seed int64) []playInput {
		var out []playInput
		for i := 0; i < 64; i++ {
			out = append(out, inputFor(seed, i, 4, true))
		}
		return out
	}
	if !reflect.DeepEqual(gen(1), gen(1)) {
		t.Error("one seed gave two different input sequences")
	}
	a, b := gen(1), gen(2)
	sameSeeds, sameTypes := 0, 0
	for i := range a {
		if a[i].seed == b[i].seed {
			sameSeeds++
		}
		if reflect.DeepEqual(a[i].types, b[i].types) {
			sameTypes++
		}
	}
	if sameSeeds > 0 || sameTypes == len(a) {
		t.Errorf("seeds 1 and 2 share %d of %d play seeds and %d type profiles", sameSeeds, len(a), sameTypes)
	}
}

// TestTraceSelfTimes: self times of a span tree add up to its root, and
// the farm's run lands inside the calls it overlaps.
func TestTraceSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "play", Parent: -1, Start: 0, End: 100},
		{Name: "http.create", Parent: 0, Start: 0, End: 10},
		{Name: "http.submit", Parent: 0, Start: 10, End: 40},
		{Name: "service.submit", Parent: 2, Start: 12, End: 14},
		{Name: "http.wait", Parent: 0, Start: 41, End: 100},
		{Name: "service.wait", Parent: 4, Start: 45, End: 95},
	}
	spans = placeRun(spans, 0, 13, 95) // the run began inside the submit handler
	trees := selfTables(spans)
	if len(trees) != 1 || trees[0].plays != 1 || trees[0].total != 100 {
		t.Fatalf("trees = %+v", trees)
	}
	if c := trees[0].coverage; math.Abs(c-1) > 1e-9 {
		t.Errorf("self times cover %.3f of the root, want 1", c)
	}
	self := map[string]int64{}
	for _, r := range trees[0].rows {
		self[r.name] = int64(r.self)
	}
	// run: 13-14 in service.submit, 14-40 in http.submit, 40-41 in the gap,
	// 41-45 in http.wait, 45-95 in service.wait.
	want := map[string]int64{"run": 82, "http.create": 10, "http.submit": 2, "service.submit": 1, "http.wait": 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

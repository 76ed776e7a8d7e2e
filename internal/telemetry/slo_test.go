package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncmediator/api"
)

func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("phase:ba:p99:250ms")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != KindPhase || o.Selector != "ba" || o.Quantile != 0.99 || o.Threshold != 250*time.Millisecond {
		t.Fatalf("parsed %+v", o)
	}
	if o.Spec != "phase:ba:p99:250ms" {
		t.Fatalf("canonical spec %q", o.Spec)
	}
	if o, err := ParseObjective("variant:4.1:p99.9:1s"); err != nil || math.Abs(o.Quantile-0.999) > 1e-9 {
		t.Fatalf("fractional quantile: %+v %v", o, err)
	}
	for _, bad := range []string{
		"", "phase:ba:p99", "play:ba:p99:1s", "phase::p99:1s",
		"phase:ba:99:1s", "phase:ba:p0:1s", "phase:ba:p100:1s",
		"phase:ba:p99:zap", "phase:ba:p99:-1s",
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Fatalf("objective %q accepted", bad)
		}
	}
	if _, err := ParseObjectives([]string{"phase:ba:p99:250ms", "phase:ba:p99:250ms"}); err == nil {
		t.Fatal("duplicate objective accepted")
	}
	if objs, err := ParseObjectives([]string{" ", "phase:ba:p99:250ms"}); err != nil || len(objs) != 1 {
		t.Fatalf("blank entries should be skipped: %v %v", objs, err)
	}
}

// TestSLOBurnFiresAndClears drives the engine through a healthy
// baseline, a breach (fire with exemplar), and recovery (clear).
func TestSLOBurnFiresAndClears(t *testing.T) {
	objs, err := ParseObjectives([]string{"phase:ba:p90:100ms"})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []api.FleetAlert
	var specs []string
	e := NewSLOEngine(objs, func(spec string, a api.FleetAlert) {
		specs, alerts = append(specs, spec), append(alerts, a)
	})

	// Healthy ticks: everything under threshold.
	for tick := 0; tick < 5; tick++ {
		e.Observe(KindPhase, "ba", 10*time.Millisecond, false, "s-ok", "t-ok")
		e.Tick()
	}
	if len(alerts) != 0 {
		t.Fatalf("healthy traffic alerted: %+v", alerts)
	}

	// Breach: every sample over threshold, burn = 1/0.1 = 10x budget.
	for tick := 0; tick < 3; tick++ {
		e.Observe(KindPhase, "ba", 500*time.Millisecond, false, "s-slow", "t-slow")
		e.Tick()
	}
	if len(alerts) != 1 || alerts[0].Cleared {
		t.Fatalf("breach alerts: %+v", alerts)
	}
	fire := alerts[0]
	if specs[0] != "phase:ba:p90:100ms" || fire.Rule != burnRule || fire.TraceID != "t-slow" || fire.Session != "s-slow" {
		t.Fatalf("fire alert %s %+v", specs[0], fire)
	}
	st := e.Status()
	if len(st) != 1 || !st[0].Firing || st[0].ExemplarTrace != "t-slow" {
		t.Fatalf("status while firing: %+v", st)
	}
	if fire.Value < 1 || st[0].LongBurn < 1 {
		t.Fatalf("fire burns %v/%v", fire.Value, st[0].LongBurn)
	}

	// Recovery: fast samples age the breach out of the short window.
	for tick := 0; tick < 6 && len(alerts) == 1; tick++ {
		for i := 0; i < 20; i++ {
			e.Observe(KindPhase, "ba", 5*time.Millisecond, false, "s-ok", "t-ok")
		}
		e.Tick()
	}
	if len(alerts) != 2 || !alerts[1].Cleared {
		t.Fatalf("clear alerts: %+v", alerts)
	}
	if st := e.Status(); st[0].Firing {
		t.Fatalf("status still firing after clear: %+v", st)
	}
}

// TestSLOFailedPlaysBurnBudget: errored plays count against the
// objective whatever their latency — the error half of the objective.
func TestSLOFailedPlaysBurnBudget(t *testing.T) {
	objs, err := ParseObjectives([]string{"variant:4.1:p50:1s"})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []api.FleetAlert
	e := NewSLOEngine(objs, func(_ string, a api.FleetAlert) { alerts = append(alerts, a) })
	for tick := 0; tick < 3; tick++ {
		e.Observe(KindVariant, "4.1", time.Millisecond, true, "s-err", "t-err")
		e.Tick()
	}
	if len(alerts) != 1 || alerts[0].Session != "s-err" {
		t.Fatalf("failed plays did not burn: %+v", alerts)
	}
	if !strings.Contains(alerts[0].Message, "slo variant:4.1:p50:1s burning") {
		t.Fatalf("message %q", alerts[0].Message)
	}
}

// TestSLOEngineNilSafety: a nil engine (no objectives) absorbs every
// call.
func TestSLOEngineNilSafety(t *testing.T) {
	e := NewSLOEngine(nil, nil)
	if e != nil {
		t.Fatal("engine without objectives must be nil")
	}
	e.Observe(KindPhase, "ba", time.Second, false, "", "")
	e.Tick()
	if st := e.Status(); st != nil {
		t.Fatalf("nil status %+v", st)
	}
}

// TestSLOBurnIsExact: a window's burn is exactly the over-threshold
// share of its samples over the error budget. A sample at the threshold
// is not over it; one a millisecond past it is, and so is a failed play
// whatever its latency.
func TestSLOBurnIsExact(t *testing.T) {
	objs, err := ParseObjectives([]string{"phase:ba:p99:250ms"})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSLOEngine(objs, nil)
	budget := 1 - objs[0].Quantile
	e.Observe(KindPhase, "ba", 250*time.Millisecond, false, "s-at", "t-at")
	e.Observe(KindPhase, "ba", 251*time.Millisecond, false, "s-over", "t-over")
	e.Observe(KindPhase, "ba", time.Millisecond, true, "s-failed", "t-failed")
	e.Observe(KindPhase, "ba", 10*time.Millisecond, false, "s-under", "t-under")
	e.Tick()
	st := e.Status()[0]
	if want := 2.0 / 4.0 / budget; st.ShortBurn != want || st.LongBurn != want {
		t.Fatalf("first tick burns %v/%v, want exactly %v", st.ShortBurn, st.LongBurn, want)
	}
	if st.Samples != 4 || st.ExemplarSession != "s-failed" {
		t.Fatalf("first tick status %+v", st)
	}
	e.Observe(KindPhase, "ba", 10*time.Millisecond, false, "s-under", "t-under")
	e.Tick()
	e.Tick()
	st = e.Status()[0]
	if want := 2.0 / 5.0 / budget; st.ShortBurn != 0 || st.LongBurn != want {
		t.Fatalf("third tick burns %v/%v, want exactly 0/%v", st.ShortBurn, st.LongBurn, want)
	}
}

// TestSLOConcurrentObserve: samples observed while the engine ticks each
// land in exactly one window, so no window holds more over-threshold
// samples than samples, and every sample is counted once.
func TestSLOConcurrentObserve(t *testing.T) {
	objs, err := ParseObjectives([]string{"phase:ba:p90:100ms"})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSLOEngine(objs, nil)
	maxBurn := 1 / (1 - objs[0].Quantile)
	const workers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.Observe(KindPhase, "ba", time.Duration(i%2)*time.Second, false, "s", "t")
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for ticking := true; ticking; {
		select {
		case <-done:
			ticking = false
		default:
		}
		e.Tick()
		if st := e.Status()[0]; st.ShortBurn > maxBurn || st.LongBurn > maxBurn {
			t.Fatalf("burns %v/%v above the all-over bound %v", st.ShortBurn, st.LongBurn, maxBurn)
		}
	}
	if st := e.Status()[0]; st.Samples != workers*each {
		t.Fatalf("samples %d, want %d", st.Samples, workers*each)
	}
}

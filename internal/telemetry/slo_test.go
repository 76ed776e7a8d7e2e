package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
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
	var alerts []SLOAlert
	e := NewSLOEngine(SLOConfig{
		Objectives:  objs,
		ShortWindow: 2,
		LongWindow:  4,
		OnAlert:     func(a SLOAlert) { alerts = append(alerts, a) },
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
	if fire.Objective != "phase:ba:p90:100ms" || fire.ExemplarTrace != "t-slow" || fire.ExemplarSession != "s-slow" {
		t.Fatalf("fire alert %+v", fire)
	}
	if fire.ShortBurn < 1 || fire.LongBurn < 1 {
		t.Fatalf("fire burns %v/%v", fire.ShortBurn, fire.LongBurn)
	}
	st := e.Status()
	if len(st) != 1 || !st[0].Firing || st[0].ExemplarTrace != "t-slow" {
		t.Fatalf("status while firing: %+v", st)
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
	var alerts []SLOAlert
	e := NewSLOEngine(SLOConfig{Objectives: objs, ShortWindow: 1, LongWindow: 2,
		OnAlert: func(a SLOAlert) { alerts = append(alerts, a) }})
	for tick := 0; tick < 3; tick++ {
		e.Observe(KindVariant, "4.1", time.Millisecond, true, "s-err", "t-err")
		e.Tick()
	}
	if len(alerts) != 1 || alerts[0].ExemplarSession != "s-err" {
		t.Fatalf("failed plays did not burn: %+v", alerts)
	}
	if !strings.Contains(alerts[0].Message, "slo variant:4.1:p50:1s burning") {
		t.Fatalf("message %q", alerts[0].Message)
	}
}

// TestSLOEngineNilSafety: a nil engine (no objectives) absorbs every
// call.
func TestSLOEngineNilSafety(t *testing.T) {
	e := NewSLOEngine(SLOConfig{})
	if e != nil {
		t.Fatal("engine without objectives must be nil")
	}
	e.Observe(KindPhase, "ba", time.Second, false, "", "")
	e.Tick()
	if st := e.Status(); st != nil {
		t.Fatalf("nil status %+v", st)
	}
	if s, l := e.Windows(); s != 0 || l != 0 {
		t.Fatalf("nil windows %d %d", s, l)
	}
}

package async

import (
	"strings"
	"testing"
)

func TestTraceRecorder(t *testing.T) {
	rec := &TraceRecorder{}
	procs := []Process{&initiatorProc{}, echoProc{}, echoProc{}}
	rt, err := New(Config{Procs: procs, Scheduler: &FIFOScheduler{}, Seed: 1, Trace: rec.Record})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sent()) != res.Stats.MessagesSent {
		t.Fatalf("trace sent %d, stats %d", len(rec.Sent()), res.Stats.MessagesSent)
	}
	if len(rec.Delivered()) != res.Stats.MessagesDelivered {
		t.Fatalf("trace delivered %d, stats %d", len(rec.Delivered()), res.Stats.MessagesDelivered)
	}
	pc := rec.PairCounts()
	if pc[[2]PID{0, 1}] != 1 || pc[[2]PID{0, 2}] != 1 {
		t.Fatalf("pair counts %v", pc)
	}
	if rec.MaxInFlight() < 1 {
		t.Fatal("max in flight should be at least 1")
	}
	tl := rec.Timeline(100)
	if !strings.Contains(tl, "p0! >1,2") {
		t.Fatalf("timeline missing initiator start:\n%s", tl)
	}
}

func TestTimelineLimit(t *testing.T) {
	rec := &TraceRecorder{}
	procs := []Process{&initiatorProc{}, echoProc{}, echoProc{}}
	rt, _ := New(Config{Procs: procs, Scheduler: &FIFOScheduler{}, Seed: 2, Trace: rec.Record})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	tl := rec.Timeline(1)
	if !strings.Contains(tl, "more steps") {
		t.Fatalf("limit marker missing:\n%s", tl)
	}
}

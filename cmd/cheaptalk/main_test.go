package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickStart runs the README quick-start command and checks its
// report: the agreed profile, no deadlock, and the message counts of the
// seeded play.
func TestQuickStart(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-n 5 -k 1 -t 0 -variant 4.1 -seed 3"), &out); err != nil {
		t.Fatal(err)
	}
	want := "variant:    Theorem4.1 (bound n > 4, have n=5)\n" +
		"profile:    [1 1 1 1 1]\n" +
		"utility:    2\n" +
		"deadlocked: false\n" +
		"messages:   925 sent, 915 delivered, 920 steps\n"
	if got := out.String(); got != want {
		t.Fatalf("quick start printed\n%s\nwant\n%s", got, want)
	}
}

// TestTimelineAndBadVariant: -timeline appends the scheduler's first
// steps, and an unknown variant is an error, not a play.
func TestTimelineAndBadVariant(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-n 5 -k 1 -t 0 -variant 4.1 -seed 3 -timeline 2"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scheduler timeline (first 2 steps):\ns1 p0! >0,1,2,3,4\ns2 p1!") {
		t.Fatalf("timeline missing:\n%s", out.String())
	}
	if err := run([]string{"-variant", "9.9"}, &out); err == nil {
		t.Fatal("variant 9.9 accepted")
	}
}

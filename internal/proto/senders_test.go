package proto

import (
	"testing"

	"asyncmediator/internal/async"
)

func TestSenders(t *testing.T) {
	for _, n := range []int{1, 4, 64, 65, 130} {
		s := NewSenders(n)
		for _, p := range []async.PID{-1, async.PID(n), async.PID(n + 64), -65} {
			if s.Add(p) || s.Has(p) {
				t.Fatalf("n=%d: out-of-range sender %d accepted", n, p)
			}
		}
		for p := 0; p < n; p += 3 {
			if !s.Add(async.PID(p)) {
				t.Fatalf("n=%d: new sender %d not added", n, p)
			}
			if s.Add(async.PID(p)) {
				t.Fatalf("n=%d: duplicate sender %d added twice", n, p)
			}
		}
		want := (n + 2) / 3
		if s.Len() != want {
			t.Fatalf("n=%d: Len %d, want %d", n, s.Len(), want)
		}
		for p := 0; p < n; p++ {
			if s.Has(async.PID(p)) != (p%3 == 0) {
				t.Fatalf("n=%d: Has(%d) = %v", n, p, s.Has(async.PID(p)))
			}
		}
	}
	var zero Senders
	if zero.Add(0) || zero.Len() != 0 {
		t.Fatal("the zero Senders accepted a sender")
	}
}

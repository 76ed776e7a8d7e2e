package events

import (
	"sync"
	"testing"
	"time"
)

func TestFanOutDeliversInOrderToAllSubscribers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	a, c := b.Subscribe(16), b.Subscribe(16)
	defer a.Cancel()
	defer c.Cancel()

	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: "session", ID: "s-000001", State: "running"})
	}
	for _, sub := range []*Sub{a, c} {
		var last int64
		for i := 0; i < 5; i++ {
			e := <-sub.C
			if e.Seq <= last {
				t.Fatalf("seq not monotone: %d after %d", e.Seq, last)
			}
			last = e.Seq
			if e.Kind != "session" || e.ID != "s-000001" {
				t.Fatalf("bad event %+v", e)
			}
		}
	}
	if b.Seq() != 5 {
		t.Fatalf("bus seq %d", b.Seq())
	}
}

// TestSlowSubscriberNeverBlocksPublisher fills a size-2 subscription far
// past its buffer: Publish must keep returning immediately, shedding the
// oldest events, and the subscriber must still see the newest ones.
func TestSlowSubscriberNeverBlocksPublisher(t *testing.T) {
	b := NewBus()
	defer b.Close()
	slow := b.Subscribe(2)
	defer slow.Cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Publish(Event{Kind: "session", ID: "s", State: "running"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	// The two retained events are the newest two: 98 were dropped.
	e1, e2 := <-slow.C, <-slow.C
	if e1.Seq != 99 || e2.Seq != 100 {
		t.Fatalf("retained %d,%d, want 99,100 (drop-oldest)", e1.Seq, e2.Seq)
	}
}

// subscribers returns the bus's current subscriber count.
func subscribers(b *Bus) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

func TestCancelAndCloseSemantics(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(4)
	if n := subscribers(b); n != 1 {
		t.Fatalf("subscribers %d", n)
	}
	s.Cancel()
	s.Cancel() // idempotent
	if n := subscribers(b); n != 0 {
		t.Fatalf("subscribers %d after cancel", n)
	}
	if _, ok := <-s.C; ok {
		t.Fatal("cancelled channel still open")
	}

	s2 := b.Subscribe(4)
	b.Publish(Event{Kind: "x", ID: "a", State: "done"})
	b.Close()
	b.Close() // idempotent
	// The buffered event is still readable, then the channel closes.
	if e, ok := <-s2.C; !ok || e.Seq != 1 {
		t.Fatalf("buffered event lost: %+v %v", e, ok)
	}
	if _, ok := <-s2.C; ok {
		t.Fatal("channel open after Close")
	}
	if seq := b.Publish(Event{}); seq != 0 {
		t.Fatalf("publish after close returned seq %d", seq)
	}
	post := b.Subscribe(4)
	if _, ok := <-post.C; ok {
		t.Fatal("subscription on a closed bus not pre-closed")
	}
}

// TestConcurrentPublishSubscribe races publishers against subscribe /
// cancel churn; run under -race in CI.
func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	defer b.Close()
	var pubs, subs sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 200; i++ {
				b.Publish(Event{Kind: "session", ID: "s", State: "running"})
			}
		}()
	}
	// One extra publisher keeps the bus live until the churners finish, so
	// no subscriber can block forever on an idle bus.
	heartbeat := make(chan struct{})
	go func() {
		defer close(heartbeat)
		for {
			select {
			case <-stop:
				return
			default:
				b.Publish(Event{Kind: "session", ID: "hb", State: "running"})
			}
		}
	}()
	for c := 0; c < 4; c++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := 0; i < 50; i++ {
				s := b.Subscribe(8)
				<-s.C
				s.Cancel()
			}
		}()
	}
	subs.Wait()
	close(stop)
	<-heartbeat
	pubs.Wait()
	if b.Seq() < 800 {
		t.Fatalf("seq %d, want >= 800", b.Seq())
	}
}

// Package events is the farm's fan-out event bus: session and experiment
// state transitions are published once and delivered to every subscriber,
// replacing client poll loops with push (the HTTP layer exposes the bus as
// GET /events server-sent events and per-session long-poll).
//
// Delivery is at-most-once per subscriber with a bounded buffer: a slow
// consumer never blocks the publisher (the farm's workers). When a
// subscriber's buffer is full the oldest buffered event is dropped to make
// room, and the drop is counted; consumers detect gaps by the monotone
// Seq stamped on every published event.
package events

import "sync"

// Event is one state transition. Kind scopes the ID namespace ("session",
// "experiment", "fleet"); Data optionally carries the terminal snapshot
// so a subscriber needs no follow-up GET.
type Event struct {
	// Seq is the bus-wide monotone sequence number, assigned by Publish.
	Seq int64
	// Kind is the subject namespace: "session", "experiment" or "fleet".
	Kind string
	// ID names the subject (session or experiment-job id).
	ID string
	// State is the lifecycle state entered.
	State string
	// Terminal marks the subject's final transition.
	Terminal bool
	// Data optionally carries the subject's snapshot (terminal events) as
	// a value the publisher no longer mutates; a subscriber that writes
	// the event out encodes it.
	Data any
}

// Bus fans events out to subscribers. The zero value is not usable; call
// NewBus.
type Bus struct {
	mu     sync.Mutex
	seq    int64
	subs   map[*Sub]struct{}
	closed bool
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Sub]struct{})}
}

// Sub is one subscription. Receive from C; the channel closes when the
// subscription is cancelled or the bus shuts down.
type Sub struct {
	// C delivers events in publish order, with gaps in Seq where the
	// subscriber overflowed.
	C <-chan Event

	c   chan Event
	bus *Bus
}

// Subscribe registers a subscriber with the given buffer depth (<=0: 64).
// Subscribing to a closed bus returns an already-closed subscription.
func (b *Bus) Subscribe(buf int) *Sub {
	if buf <= 0 {
		buf = 64
	}
	s := &Sub{c: make(chan Event, buf), bus: b}
	s.C = s.c
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.c)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Cancel removes the subscription and closes its channel. Idempotent.
func (s *Sub) Cancel() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		close(s.c)
	}
}

// Publish stamps the event with the next sequence number and delivers it
// to every subscriber without blocking: a full subscriber sheds its oldest
// buffered event. It returns the assigned sequence number (0 if the bus is
// closed).
func (b *Bus) Publish(e Event) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	b.seq++
	e.Seq = b.seq
	for s := range b.subs {
		select {
		case s.c <- e:
			continue
		default:
		}
		// Full buffer: drop the oldest so the newest state is what a lagging
		// consumer sees first when it catches up.
		select {
		case <-s.c:
		default:
		}
		select {
		case s.c <- e:
		default: // only possible if buf is pathological (<1)
		}
	}
	return e.Seq
}

// Seq returns the last assigned sequence number.
func (b *Bus) Seq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Close shuts the bus down: every subscription channel closes and further
// publishes are dropped. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		close(s.c)
		delete(b.subs, s)
	}
}

package proto

import "asyncmediator/internal/async"

// Senders is a set of parties drawn from 0..n-1, for the per-sender
// tallies a module keeps (who sent EST v, who is READY, whose share is
// in): one bit per party and a count. A sender outside 0..n-1 is never a
// member, so a per-party slice indexed by a sender that Add accepted
// stays in bounds. Parties 0..63 cost no allocation.
type Senders struct {
	n, count int
	low      uint64   // parties 0..63
	high     []uint64 // parties 64..n-1
}

// NewSenders returns an empty set over parties 0..n-1.
func NewSenders(n int) Senders {
	return Senders{n: n, high: make([]uint64, max(n-1, 0)/64)}
}

// bit returns p's word and bit; p is in 0..n-1.
func (s *Senders) bit(p async.PID) (*uint64, uint64) {
	if p < 64 {
		return &s.low, 1 << p
	}
	return &s.high[p/64-1], 1 << (p % 64)
}

// Add marks p and reports whether it was new. A p outside 0..n-1 is
// ignored and reports false.
func (s *Senders) Add(p async.PID) bool {
	if p < 0 || int(p) >= s.n || s.Has(p) {
		return false
	}
	w, b := s.bit(p)
	*w |= b
	s.count++
	return true
}

// Has reports whether p is in the set.
func (s *Senders) Has(p async.PID) bool {
	if p < 0 || int(p) >= s.n {
		return false
	}
	w, b := s.bit(p)
	return *w&b != 0
}

// Len returns the number of parties in the set.
func (s *Senders) Len() int { return s.count }

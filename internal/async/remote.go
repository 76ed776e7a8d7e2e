package async

import (
	"math/rand"
	"sync"
)

// Remote adapts a Process to an external transport (package wire's TCP
// mesh): the transport supplies the send function and pumps inbound
// messages through the Env this adapter exposes. All game-layer state
// (moves, wills, halting) is tracked locally and mutex-protected, since
// transports deliver from their own goroutines.
type Remote struct {
	self    PID
	players int
	rng     *rand.Rand // the party's stream until Release
	sendFn  func(to PID, payload any)

	mu      sync.Mutex
	move    any
	decided bool
	will    any
	hasWill bool
	halted  bool
}

// NewRemote creates a Remote backend for one process.
func NewRemote(self PID, n, players int, seed int64, send func(to PID, payload any)) *Remote {
	if players == 0 {
		players = n
	}
	return &Remote{
		self:    self,
		players: players,
		rng:     procRNG(seed, self),
		sendFn:  send,
	}
}

var _ envBackend = (*Remote)(nil)

// Env returns the environment handle to pass into Start/Deliver.
func (r *Remote) Env() *Env { return &Env{b: r, self: r.self} }

// Release puts the party's stream back in the pool the runtime takes
// streams from; the process must not draw from Env.Rand afterwards.
// Package wire calls it when Node.Run ends. A second call does nothing.
func (r *Remote) Release() {
	if r.rng != nil {
		rngPool.Put(r.rng)
		r.rng = nil
	}
}

// Move returns the decided move, if any.
func (r *Remote) Move() (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.move, r.decided
}

// Will returns the registered will, if any.
func (r *Remote) Will() (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.will, r.hasWill
}

// Halted reports whether the process halted.
func (r *Remote) Halted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.halted
}

func (r *Remote) send(from, to PID, payload any) {
	if r.sendFn != nil {
		r.sendFn(to, payload)
	}
}

func (r *Remote) decide(p PID, move any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.decided {
		r.decided = true
		r.move = move
	}
}

func (r *Remote) setWill(p PID, move any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.will = move
	r.hasWill = true
}

func (r *Remote) halt(p PID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.halted = true
}

func (r *Remote) procRand(p PID) *rand.Rand { return r.rng }
func (r *Remote) numPlayers() int           { return r.players }

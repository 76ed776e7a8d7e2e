package async

import "math/rand"

// SendHook inspects and possibly rewrites an outgoing message. Returning
// ok=false drops the message entirely.
type SendHook func(to PID, payload any) (newPayload any, ok bool)

// HookedEnv returns an Env that behaves like env but passes every Send
// through the hook first. It is the substrate for "run the honest protocol
// but deviate at the wire" adversaries (package adversary): share
// corruption, selective silence, message suppression.
func HookedEnv(env *Env, onSend SendHook) *Env {
	return &Env{b: &hookedBackend{inner: env.b, onSend: onSend}, self: env.self}
}

type hookedBackend struct {
	inner  envBackend
	onSend SendHook
}

var _ envBackend = (*hookedBackend)(nil)

func (h *hookedBackend) send(from, to PID, payload any) {
	if h.onSend != nil {
		p2, ok := h.onSend(to, payload)
		if !ok {
			return
		}
		payload = p2
	}
	h.inner.send(from, to, payload)
}

func (h *hookedBackend) decide(p PID, move any)    { h.inner.decide(p, move) }
func (h *hookedBackend) hasDecided(p PID) bool     { return h.inner.hasDecided(p) }
func (h *hookedBackend) setWill(p PID, move any)   { h.inner.setWill(p, move) }
func (h *hookedBackend) halt(p PID)                { h.inner.halt(p) }
func (h *hookedBackend) procRand(p PID) *rand.Rand { return h.inner.procRand(p) }
func (h *hookedBackend) numProcs() int             { return h.inner.numProcs() }
func (h *hookedBackend) numPlayers() int           { return h.inner.numPlayers() }

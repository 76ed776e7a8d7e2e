// Package proto provides instance multiplexing for composite protocols.
//
// The cheap-talk protocols of the paper are towers of concurrent
// sub-protocols: one player simultaneously participates in n reliable
// broadcasts, n Byzantine agreements, n^2 AVSS dealings, and so on. Each
// sub-protocol is a Module identified by an instance id; a Host implements
// async.Process and routes incoming messages to the right module.
//
// Asynchrony means messages for an instance routinely arrive before the
// local party has created that instance (e.g. an ECHO for a broadcast whose
// INIT is still in flight). The Host therefore buffers messages addressed
// to unregistered instances and replays them on registration.
//
// Everything a malicious party sends is untrusted: modules must
// type-assert message bodies defensively and ignore garbage.
package proto

import (
	"fmt"
	"math/rand"

	"asyncmediator/internal/async"
)

// Envelope wraps a module message with its instance id. A *Envelope is
// the only payload type a Host sends or understands.
//
// A sent envelope is immutable: Broadcast shares one envelope across its
// n sends, and a Host carves envelopes out of a shared slab, so a send
// hook that rewrites a message must copy the envelope and send the copy,
// never write through the pointer.
type Envelope struct {
	Instance string
	Body     any
}

// envSlab is how many envelopes a Host carves from one allocation.
const envSlab = 64

// Module is a sub-protocol instance hosted by a Host.
type Module interface {
	// Start is called once, when the module is registered on a started
	// host (or when the host starts, for modules registered earlier).
	Start(ctx *Ctx)
	// Handle processes one incoming message body from another party's
	// module with the same instance id. Bodies are untrusted.
	Handle(ctx *Ctx, from async.PID, body any)
}

// Ctx is the capability a module uses to interact with the network and
// with its host. A Ctx is only valid during the callback that received it:
// the host keeps one Ctx per registered instance and rebinds it to each
// callback's Env, so retaining a Ctx (in a module field, or in a closure
// that runs after the callback returns) is a bug.
type Ctx struct {
	host *Host
	env  *async.Env
	inst string
}

// Self returns this party's id.
func (c *Ctx) Self() async.PID { return c.env.Self() }

// N returns the number of protocol participants (game players).
func (c *Ctx) N() int { return c.env.Players() }

// Rand returns this party's private randomness.
func (c *Ctx) Rand() *rand.Rand { return c.env.Rand() }

// Instance returns the module's own instance id.
func (c *Ctx) Instance() string { return c.inst }

// Send sends body to the same instance at party `to`, in a *Envelope
// carved from the host's slab. The envelope and body are immutable once
// sent.
func (c *Ctx) Send(to async.PID, body any) {
	c.env.Send(to, c.host.envelope(c.inst, body))
}

// SendTo sends body to a *different* instance at party `to`. Used by
// parent modules addressing their children across parties.
func (c *Ctx) SendTo(to async.PID, instance string, body any) {
	c.env.Send(to, c.host.envelope(instance, body))
}

// Broadcast sends body to the same instance at every participant,
// including self (n point-to-point sends; not atomic). The n sends share
// one *Envelope, so a hook that rewrites one of them must copy it first.
func (c *Ctx) Broadcast(body any) {
	e := c.host.envelope(c.inst, body)
	for p, n := 0, c.N(); p < n; p++ {
		c.env.Send(async.PID(p), e)
	}
}

// Spawn registers a child module under the given absolute instance id and
// starts it (replaying any buffered messages). Spawning an id twice is a
// no-op returning the existing module.
func (c *Ctx) Spawn(instance string, m Module) Module {
	return c.host.spawn(c.env, instance, m)
}

// Lookup returns the module registered under instance, if any.
func (c *Ctx) Lookup(instance string) (Module, bool) {
	e, ok := c.host.modules[instance]
	if !ok {
		return nil, false
	}
	return e.m, true
}

// For returns a Ctx bound to a different instance id, so a parent module
// can invoke a child module's methods (which send under the child's id).
func (c *Ctx) For(instance string) *Ctx {
	return c.host.Ctx(c.env, instance)
}

// Env exposes the underlying game environment, for game-level actions
// (Decide, SetWill, Halt) that outlive any single module.
func (c *Ctx) Env() *async.Env { return c.env }

// Host multiplexes modules over one async.Process. The zero value is not
// usable; call NewHost.
type Host struct {
	modules map[string]*entry
	buffer  map[string][]buffered
	started bool
	// onStart runs when the host process starts, before any module starts.
	onStart func(env *async.Env)
	// startOrder preserves registration order for deterministic startup.
	startOrder []string
	// unknown counts payloads dropped because they are not a *Envelope
	// (diagnostics).
	unknown int
	// slab holds the envelopes not yet carved (see envelope).
	slab []Envelope
}

// entry is one registered instance: its module and the Ctx every callback
// into the module receives.
type entry struct {
	m   Module
	ctx Ctx
}

// envelope returns a new *Envelope carved from the host's slab: one
// allocation per envSlab sends rather than one per send. A slab is freed
// once none of its envelopes is referenced.
func (h *Host) envelope(instance string, body any) *Envelope {
	if len(h.slab) == 0 {
		h.slab = make([]Envelope, envSlab)
	}
	e := &h.slab[0]
	h.slab = h.slab[1:]
	e.Instance, e.Body = instance, body
	return e
}

// bind points the entry's Ctx at env and returns it.
func (e *entry) bind(env *async.Env) *Ctx {
	e.ctx.env = env
	return &e.ctx
}

type buffered struct {
	from async.PID
	body any
}

// NewHost returns an empty Host.
func NewHost() *Host {
	return &Host{
		modules: make(map[string]*entry),
		buffer:  make(map[string][]buffered),
	}
}

// Register adds a module before the host starts. Registering after start
// is equivalent to Spawn from a callback.
func (h *Host) Register(instance string, m Module) error {
	if _, dup := h.modules[instance]; dup {
		return fmt.Errorf("proto: duplicate instance %q", instance)
	}
	h.add(instance, m)
	return nil
}

func (h *Host) add(instance string, m Module) *entry {
	e := &entry{m: m, ctx: Ctx{host: h, inst: instance}}
	h.modules[instance] = e
	h.startOrder = append(h.startOrder, instance)
	return e
}

// OnStart sets a hook invoked when the host process receives the start
// signal, before modules start.
func (h *Host) OnStart(f func(env *async.Env)) { h.onStart = f }

// UnknownCount reports how many message bodies no module has claimed:
// payloads that are not a non-nil *Envelope, and bodies still buffered for an
// instance that was never spawned. Read at the end of a run, it counts
// what the run discarded (malformed or malicious).
func (h *Host) UnknownCount() int {
	n := h.unknown
	for _, pending := range h.buffer {
		n += len(pending)
	}
	return n
}

// Ctx returns a context bound to the given instance and env, for
// host-level code (such as OnStart hooks) that needs to call into a
// module's methods. A registered instance's own Ctx is returned, rebound
// to env; an id not registered yet gets a fresh one.
func (h *Host) Ctx(env *async.Env, instance string) *Ctx {
	if e, ok := h.modules[instance]; ok {
		return e.bind(env)
	}
	return &Ctx{host: h, env: env, inst: instance}
}

var _ async.Process = (*Host)(nil)

// Start implements async.Process.
func (h *Host) Start(env *async.Env) {
	h.started = true
	if h.onStart != nil {
		h.onStart(env)
	}
	for _, id := range h.startOrder {
		e := h.modules[id]
		e.m.Start(e.bind(env))
		h.flush(env, id)
	}
}

// Deliver implements async.Process.
func (h *Host) Deliver(env *async.Env, msg async.Message) {
	envlp, ok := msg.Payload.(*Envelope)
	if !ok || envlp == nil {
		h.unknown++
		return
	}
	e, ok := h.modules[envlp.Instance]
	if !ok {
		// Buffer for a module that may be spawned later.
		h.buffer[envlp.Instance] = append(h.buffer[envlp.Instance],
			buffered{from: msg.From, body: envlp.Body})
		return
	}
	e.m.Handle(e.bind(env), msg.From, envlp.Body)
}

func (h *Host) spawn(env *async.Env, instance string, m Module) Module {
	if existing, ok := h.modules[instance]; ok {
		return existing.m
	}
	e := h.add(instance, m)
	if h.started {
		m.Start(e.bind(env))
		h.flush(env, instance)
	}
	return m
}

func (h *Host) flush(env *async.Env, instance string) {
	// Replay buffered messages; handlers may spawn further modules, whose
	// own buffers are flushed recursively by spawn.
	for {
		pending := h.buffer[instance]
		if len(pending) == 0 {
			return
		}
		delete(h.buffer, instance)
		e := h.modules[instance]
		for _, b := range pending {
			e.m.Handle(e.bind(env), b.from, b.body)
		}
	}
}

// FuncModule adapts plain functions to the Module interface; useful in
// tests and for tiny glue modules.
type FuncModule struct {
	OnStart  func(ctx *Ctx)
	OnHandle func(ctx *Ctx, from async.PID, body any)
}

var _ Module = (*FuncModule)(nil)

// Start implements Module.
func (f *FuncModule) Start(ctx *Ctx) {
	if f.OnStart != nil {
		f.OnStart(ctx)
	}
}

// Handle implements Module.
func (f *FuncModule) Handle(ctx *Ctx, from async.PID, body any) {
	if f.OnHandle != nil {
		f.OnHandle(ctx, from, body)
	}
}

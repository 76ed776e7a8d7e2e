// Package mpc implements asynchronous secure multiparty evaluation of
// arithmetic circuits, following the structure of Ben-Or, Canetti and
// Goldreich (1993) for n > 4t and of Ben-Or, Kelmer and Rabin (1994) for
// n > 3t (the epsilon regime).
//
// This is the machinery behind the paper's Theorems 4.1-4.5: the cheap-talk
// strategy sigma_CT evaluates the mediator's circuit jointly, so that no
// coalition of k+t parties learns more than its own inputs and outputs,
// and no such coalition can prevent the honest parties from obtaining
// outputs (n > 4(k+t)) or can do so except with probability epsilon
// (n > 3(k+t)).
//
// Phases, all fully asynchronous and concurrent per party:
//
//  1. Dealing: every party deals one AVSS vector sharing, instance
//     "<inst>/in/<dealer>", of its input values followed, for every
//     random-bit gate, by a random contribution rho and, in the errorless
//     regime, Deg mask values (used to re-randomize product openings). A
//     party with nothing to deal spawns no dealing.
//  2. Core agreement: a CoreSet (package acs) agrees on >= n-t parties
//     whose dealings completed; inputs of excluded parties are replaced by
//     public defaults, and gate randomness is summed over the core only.
//  3. Evaluation: linear gates are local. Multiplications of two secret
//     wires use BGW resharing plus Lagrange degree reduction over a
//     per-gate agreed core. Random bits use the square-root trick: open
//     c = r^2, then b = (r/sqrt(c) + 1)/2 locally. For n > 4t the square
//     is opened directly from the degree-2t sharing under a fresh
//     zero-mask (robust); otherwise it is degree-reduced first.
//  4. Output: each output wire is opened towards its designated player
//     with online error correction.
//
// Known gap: a malicious party inside a multiplication's agreed resharing
// set can reshare a wrong product value undetected; the full
// verified-multiplication machinery of the paper's companion reference
// [10] is out of scope. So for a circuit with a secret x secret gate,
// output = circuit evaluation holds only while every resharing set is
// honest. The deviation library used by
// the robustness experiments covers input lying, crash/abort, scheduling
// collusion, share corruption at openings, and deadlock baiting.
package mpc

import (
	"fmt"

	"asyncmediator/internal/acs"
	"asyncmediator/internal/async"
	"asyncmediator/internal/avss"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/circuit"
	"asyncmediator/internal/field"
	"asyncmediator/internal/proto"
)

// inv2 is the field inverse of 2.
var inv2 = field.Element(2).Inv()

// Config configures one party's engine.
type Config struct {
	// N is the number of parties; T is the fault budget (how many may be
	// malicious or silent — the liveness and error-correction bound).
	N, T int
	// Deg is the secret-sharing degree (privacy threshold). Zero means T.
	// The paper's punishment theorems (4.4/4.5) use Deg = k+t with T = t:
	// privacy must hold against the full rational+malicious coalition
	// while only the t malicious players may stall (rationals are deterred
	// by the punishment wills).
	Deg     int
	Circuit *circuit.Circuit
	Coin    ba.Coin
	// Inputs is this party's input vector (length = Circuit.InputSlots(self)).
	Inputs []field.Element
	// DefaultInput substitutes the inputs of parties outside the agreed
	// core (the paper's default-type substitution).
	DefaultInput field.Element
	// OnOutput fires once when all outputs addressed to this party have
	// been reconstructed; values are indexed like Circuit.Outputs().
	OnOutput func(ctx *proto.Ctx, outputs map[int]field.Element)
	// OnPublic fires for diagnostics whenever a public opening completes
	// (random-bit squares). Optional.
	OnPublic func(gate int, v field.Element)
}

// wireVal is a wire's local state: either a public value known to all or
// this party's Shamir share of a secret.
type wireVal struct {
	ready  bool
	public bool
	v      field.Element
}

type mulState struct {
	started   bool                  // resharing dealt
	myShares  map[int]field.Element // dealer -> my share of dealer's resharing
	cs        *acs.CoreSet
	members   []int
	haveCore  bool
	completed bool
}

type rbState struct {
	ord int // index among the circuit's random-bit gates
	// rShare / zShare are ready once the global core is known and every
	// core member's dealing completed locally.
	haveR    bool
	rShare   field.Element
	zShare   field.Element
	opened   bool
	haveC    bool
	c        field.Element
	mul      mulState // used in the epsilon regime (reshare r^2)
	prodWire field.Element
	haveProd bool
}

// Engine is one party's MPC evaluator. Register it as a proto.Module under
// the same instance id at every party.
type Engine struct {
	cfg  Config
	inst string
	self int

	// Dealing state. Start formats the dealing and output ids once, into
	// tables every later lookup reads. Dealer d's vector is its input
	// slots, then per random-bit gate (in gate order) rho and the masks;
	// dealt[d] holds this party's shares of it once the dealing completed,
	// and pendingDeals[d] is 1 until then (0 for a dealer with nothing to
	// deal).
	dealIDs      []string // [dealer]
	dealt        [][]field.Element
	outIDs       []string // [output]
	pendingDeals []int
	coreSet      *acs.CoreSet
	core         []int
	haveCore     bool
	coreMk       []bool

	wires []wireVal
	muls  map[int]*mulState
	rbs   map[int]*rbState

	// lagCache memoizes Lagrange recombination weights per agreed member
	// set. Every multiplication (and epsilon-regime random bit) runs a
	// degree reduction over a core that is almost always identical across
	// gates, so the weights are computed once per set and amortized over
	// the whole circuit.
	lagCache map[string][]field.Element

	outOpens  map[int]*avss.Open
	outVals   map[int]field.Element
	outWant   int
	outFired  bool
	completed bool
}

var _ proto.Module = (*Engine)(nil)

// New creates an engine for one party.
//
// Feasibility requirements (d = Deg, t = T, all from the corresponding
// subprotocol thresholds):
//
//	n > 3t                  (Byzantine agreement / core sets)
//	n - t >= d + t + 1      (robust output reconstruction)
//	n - t >= 2d + 1         (multiplication degree reduction set)
//
// With d = t these reduce to n > 3t (Theorem 4.2's regime; n > 4t enables
// the errorless paths). With d = k+t, t = t they hold exactly when
// n > 2k+3t — Theorem 4.5's bound.
func New(cfg Config) (*Engine, error) {
	if cfg.Circuit == nil {
		return nil, fmt.Errorf("mpc: nil circuit")
	}
	if cfg.N <= 0 || cfg.T < 0 {
		return nil, fmt.Errorf("mpc: invalid n=%d t=%d", cfg.N, cfg.T)
	}
	if cfg.Deg == 0 {
		cfg.Deg = cfg.T
	}
	if cfg.Deg < cfg.T {
		return nil, fmt.Errorf("mpc: degree %d below fault budget %d", cfg.Deg, cfg.T)
	}
	if cfg.N <= 3*cfg.T {
		return nil, fmt.Errorf("mpc: n=%d must exceed 3t=%d", cfg.N, 3*cfg.T)
	}
	if cfg.N-cfg.T < cfg.Deg+cfg.T+1 {
		return nil, fmt.Errorf("mpc: n=%d too small for robust reconstruction (deg=%d t=%d)", cfg.N, cfg.Deg, cfg.T)
	}
	if cfg.N-cfg.T < 2*cfg.Deg+1 {
		return nil, fmt.Errorf("mpc: n=%d too small for degree reduction (deg=%d t=%d)", cfg.N, cfg.Deg, cfg.T)
	}
	return &Engine{
		cfg:      cfg,
		muls:     make(map[int]*mulState),
		rbs:      make(map[int]*rbState),
		lagCache: make(map[string][]field.Element),
		outOpens: make(map[int]*avss.Open),
		outVals:  make(map[int]field.Element),
	}, nil
}

// Errorless reports whether the engine can open unreduced degree-2d
// sharings robustly (n - t >= 2d + t + 1), enabling the errorless
// random-bit path. With d = t this is the BCG n > 4t regime; with
// d = k+t it holds from Theorem 4.4's bound upward.
func (e *Engine) Errorless() bool {
	return e.cfg.N-e.cfg.T >= 2*e.cfg.Deg+e.cfg.T+1
}

// Completed reports whether this party obtained all its outputs.
func (e *Engine) Completed() bool { return e.completed }

// Instance id helpers: all parties derive identical ids. The dealing and
// output ids are read from the tables formatIDs fills.
func (e *Engine) idCore() string          { return e.inst + "/core" }
func (e *Engine) idMul(g, d int) string   { return fmt.Sprintf("%s/mul/%d/%d", e.inst, g, d) }
func (e *Engine) idMulCS(g int) string    { return fmt.Sprintf("%s/mulcs/%d", e.inst, g) }
func (e *Engine) idRBOpen(g int) string   { return fmt.Sprintf("%s/rbopen/%d", e.inst, g) }
func (e *Engine) idRBMul(g, d int) string { return fmt.Sprintf("%s/rbmul/%d/%d", e.inst, g, d) }
func (e *Engine) idRBMulCS(g int) string  { return fmt.Sprintf("%s/rbmulcs/%d", e.inst, g) }
func (e *Engine) idOut(oi int) string     { return e.outIDs[oi] }

// rbWidth is how many values a dealer deals per random-bit gate: rho,
// plus Deg masks in the errorless regime.
func (e *Engine) rbWidth() int {
	if e.Errorless() {
		return 1 + e.cfg.Deg
	}
	return 1
}

// dealLen is the length of dealer d's vector.
func (e *Engine) dealLen(d int) int {
	return e.cfg.Circuit.InputSlots(d) + len(e.rbs)*e.rbWidth()
}

// rbSlot is the index of random-bit gate g's rho in dealer d's vector;
// its masks follow it.
func (e *Engine) rbSlot(g, d int) int {
	return e.cfg.Circuit.InputSlots(d) + e.rbs[g].ord*e.rbWidth()
}

// formatIDs fills the id tables, numbers the random-bit gates and marks
// every dealer with something to deal as pending.
func (e *Engine) formatIDs() {
	n, c := e.cfg.N, e.cfg.Circuit
	for g, gate := range c.Gates() {
		if gate.Op == circuit.OpRandBit {
			e.rbs[g] = &rbState{ord: len(e.rbs)}
		}
	}
	e.pendingDeals = make([]int, n)
	e.coreMk = make([]bool, n)
	e.dealt = make([][]field.Element, n)
	e.dealIDs = make([]string, n)
	for d := range e.dealIDs {
		if e.dealLen(d) > 0 {
			e.dealIDs[d] = fmt.Sprintf("%s/in/%d", e.inst, d)
			e.pendingDeals[d] = 1
		}
	}
	e.outIDs = make([]string, len(c.Outputs()))
	for oi := range e.outIDs {
		e.outIDs[oi] = fmt.Sprintf("%s/out/%d", e.inst, oi)
	}
}

// Start implements proto.Module: spawns the dealing-phase instances and
// the global core agreement.
func (e *Engine) Start(ctx *proto.Ctx) {
	e.inst = ctx.Instance()
	e.self = int(ctx.Self())
	n, t := e.cfg.N, e.cfg.T
	c := e.cfg.Circuit
	e.wires = make([]wireVal, len(c.Gates()))
	e.formatIDs()

	// Output openings (targets are static).
	for oi, out := range c.Outputs() {
		oi, out := oi, out
		if out.Player == e.self {
			e.outWant++
		}
		op := avss.NewOpen(n, e.cfg.Deg, t, async.PID(out.Player), func(cc *proto.Ctx, v field.Element) {
			e.onOutputValue(cc, oi, v)
		})
		e.outOpens[oi] = op
		ctx.Spawn(e.idOut(oi), op)
	}

	// One dealing per dealer with something to deal.
	for d, id := range e.dealIDs {
		if id == "" {
			continue
		}
		cb := e.dealingDone(d)
		if d == e.self {
			ctx.Spawn(id, avss.NewDealer(async.PID(d), n, e.cfg.Deg, t, e.secrets(ctx), cb))
		} else {
			ctx.Spawn(id, avss.New(async.PID(d), n, e.dealLen(d), e.cfg.Deg, t, cb))
		}
	}

	// Global core agreement.
	e.coreSet = acs.NewCoreSet(n, t, e.cfg.Coin, func(cc *proto.Ctx, members []int) {
		e.core = members
		e.haveCore = true
		e.step(cc)
	})
	ctx.Spawn(e.idCore(), e.coreSet)
	e.checkDealerReady(ctx)
	e.step(ctx)
}

// secrets is this party's dealt vector: its inputs (the default input
// for a slot it was not given), then a fresh random rho and masks per
// random-bit gate.
func (e *Engine) secrets(ctx *proto.Ctx) []field.Element {
	slots := e.cfg.Circuit.InputSlots(e.self)
	v := make([]field.Element, e.dealLen(e.self))
	for s := range v {
		switch {
		case s >= slots:
			v[s] = field.Rand(ctx.Rand())
		case s < len(e.cfg.Inputs):
			v[s] = e.cfg.Inputs[s]
		default:
			v[s] = e.cfg.DefaultInput
		}
	}
	return v
}

// dealingDone records dealer's completed dealing and re-evaluates the
// dealer-readiness predicate plus overall progress.
func (e *Engine) dealingDone(dealer int) func(*proto.Ctx, []field.Element) {
	return func(ctx *proto.Ctx, shares []field.Element) {
		e.dealt[dealer] = shares
		e.pendingDeals[dealer] = 0
		e.checkDealerReady(ctx)
		e.step(ctx)
	}
}

// checkDealerReady marks, in dealer order, every dealer whose full dealing
// set completed locally.
func (e *Engine) checkDealerReady(ctx *proto.Ctx) {
	for d, left := range e.pendingDeals {
		if left == 0 && !e.coreMk[d] {
			e.coreMk[d] = true
			e.coreSet.MarkReady(ctx.For(e.idCore()), d)
		}
	}
}

// Handle implements proto.Module: the engine has no direct messages; all
// traffic flows through child instances.
func (e *Engine) Handle(ctx *proto.Ctx, from async.PID, body any) {}

// coreHas reports whether dealer d is in the agreed core.
func (e *Engine) coreHas(d int) bool {
	for _, m := range e.core {
		if m == d {
			return true
		}
	}
	return false
}

// step drives gate evaluation as far as currently possible. It is
// idempotent and called after every potentially unblocking event.
func (e *Engine) step(ctx *proto.Ctx) {
	if !e.haveCore {
		return
	}
	progress := true
	for progress {
		progress = false
		for g, gate := range e.cfg.Circuit.Gates() {
			if e.wires[g].ready {
				continue
			}
			if e.evalGate(ctx, g, gate) {
				progress = true
			}
		}
	}
	e.feedOutputs(ctx)
}

// evalGate attempts to produce wire g; reports whether it became ready.
func (e *Engine) evalGate(ctx *proto.Ctx, g int, gate circuit.Gate) bool {
	switch gate.Op {
	case circuit.OpConst:
		e.wires[g] = wireVal{ready: true, public: true, v: gate.K}
		return true

	case circuit.OpInput:
		return e.evalInput(ctx, g, gate)

	case circuit.OpAdd, circuit.OpSub:
		a, b := e.wires[gate.A], e.wires[gate.B]
		if !a.ready || !b.ready {
			return false
		}
		e.wires[g] = combineLinear(gate.Op, a, b)
		return true

	case circuit.OpMulConst:
		a := e.wires[gate.A]
		if !a.ready {
			return false
		}
		e.wires[g] = wireVal{ready: true, public: a.public, v: a.v.Mul(gate.K)}
		return true

	case circuit.OpAddConst:
		a := e.wires[gate.A]
		if !a.ready {
			return false
		}
		e.wires[g] = wireVal{ready: true, public: a.public, v: a.v.Add(gate.K)}
		return true

	case circuit.OpMul:
		return e.evalMulGate(ctx, g, int(gate.A), int(gate.B))

	case circuit.OpRandBit:
		return e.evalRandBit(ctx, g)
	}
	return false
}

func combineLinear(op circuit.Op, a, b wireVal) wireVal {
	// share op public and public op share remain shares: adding a public
	// constant to a share shifts the underlying polynomial's constant term.
	var v field.Element
	if op == circuit.OpAdd {
		v = a.v.Add(b.v)
	} else {
		v = a.v.Sub(b.v)
	}
	return wireVal{ready: true, public: a.public && b.public, v: v}
}

func (e *Engine) evalInput(ctx *proto.Ctx, g int, gate circuit.Gate) bool {
	if !e.coreHas(gate.Player) {
		// Excluded dealer: public default input.
		e.wires[g] = wireVal{ready: true, public: true, v: e.cfg.DefaultInput}
		return true
	}
	shares := e.dealt[gate.Player]
	if shares == nil {
		return false // AVSS will complete eventually (core membership)
	}
	e.wires[g] = wireVal{ready: true, v: shares[gate.Slot]}
	return true
}

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
//  1. Dealing: every party AVSS-shares each of its input values, plus, for
//     every random-bit gate, a random contribution and t masking
//     polynomials (used to re-randomize product openings).
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
	started   bool // resharing dealt
	reshares  map[int]*avss.AVSS
	myShares  map[int]field.Element // dealer -> my share of dealer's resharing
	cs        *acs.CoreSet
	members   []int
	haveCore  bool
	completed bool
}

type rbState struct {
	// sumRho / sumMask are ready once the global core is known and all
	// core dealings for this gate completed locally.
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

	// Dealing state.
	inAVSS   map[string]*avss.AVSS // instance id -> module
	inShare  map[string]field.Element
	inDone   map[string]bool
	coreSet  *acs.CoreSet
	core     []int
	haveCore bool
	coreMk   map[int]bool

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
		inAVSS:   make(map[string]*avss.AVSS),
		inShare:  make(map[string]field.Element),
		inDone:   make(map[string]bool),
		coreMk:   make(map[int]bool),
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

// Instance id helpers: all parties derive identical ids.
func (e *Engine) idIn(p, s int) string      { return fmt.Sprintf("%s/in/%d/%d", e.inst, p, s) }
func (e *Engine) idRho(g, d int) string     { return fmt.Sprintf("%s/rho/%d/%d", e.inst, g, d) }
func (e *Engine) idMask(g, l, d int) string { return fmt.Sprintf("%s/w/%d/%d/%d", e.inst, g, l, d) }
func (e *Engine) idCore() string            { return e.inst + "/core" }
func (e *Engine) idMul(g, d int) string     { return fmt.Sprintf("%s/mul/%d/%d", e.inst, g, d) }
func (e *Engine) idMulCS(g int) string      { return fmt.Sprintf("%s/mulcs/%d", e.inst, g) }
func (e *Engine) idRBOpen(g int) string     { return fmt.Sprintf("%s/rbopen/%d", e.inst, g) }
func (e *Engine) idRBMul(g, d int) string   { return fmt.Sprintf("%s/rbmul/%d/%d", e.inst, g, d) }
func (e *Engine) idRBMulCS(g int) string    { return fmt.Sprintf("%s/rbmulcs/%d", e.inst, g) }
func (e *Engine) idOut(oi int) string       { return fmt.Sprintf("%s/out/%d", e.inst, oi) }

// Start implements proto.Module: spawns the dealing-phase instances and
// the global core agreement.
func (e *Engine) Start(ctx *proto.Ctx) {
	e.inst = ctx.Instance()
	e.self = int(ctx.Self())
	n, t := e.cfg.N, e.cfg.T
	c := e.cfg.Circuit
	e.wires = make([]wireVal, len(c.Gates()))

	// Output openings (targets are static).
	for oi, out := range c.Outputs() {
		oi, out := oi, out
		if out.Player == e.self {
			e.outWant++
		}
		op := avss.NewOpen(e.cfg.Deg, t, async.PID(out.Player), func(cc *proto.Ctx, v field.Element) {
			e.onOutputValue(cc, oi, v)
		})
		e.outOpens[oi] = op
		ctx.Spawn(e.idOut(oi), op)
	}

	// Input sharings for every (player, slot).
	for p := 0; p < n; p++ {
		for s := 0; s < c.InputSlots(p); s++ {
			id := e.idIn(p, s)
			var inst *avss.AVSS
			cb := e.dealingDone(id, p)
			if p == e.self {
				v := e.cfg.DefaultInput
				if s < len(e.cfg.Inputs) {
					v = e.cfg.Inputs[s]
				}
				inst = avss.NewDealerWithDegree(async.PID(p), n, e.cfg.Deg, t, v, cb)
			} else {
				inst = avss.NewWithDegree(async.PID(p), n, e.cfg.Deg, t, cb)
			}
			e.inAVSS[id] = inst
			ctx.Spawn(id, inst)
		}
	}

	// Randomness dealings for every random-bit gate: a contribution rho_d
	// and, in the errorless regime, t zero-mask polynomials per dealer.
	for g, gate := range c.Gates() {
		if gate.Op != circuit.OpRandBit {
			continue
		}
		e.rbs[g] = &rbState{}
		for d := 0; d < n; d++ {
			e.spawnDealing(ctx, e.idRho(g, d), d)
			if e.Errorless() {
				for l := 1; l <= e.cfg.Deg; l++ {
					e.spawnDealing(ctx, e.idMask(g, l, d), d)
				}
			}
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

// spawnDealing spawns one randomness AVSS; the local party deals a fresh
// random value when it is the dealer.
func (e *Engine) spawnDealing(ctx *proto.Ctx, id string, dealer int) {
	var inst *avss.AVSS
	cb := e.dealingDone(id, dealer)
	if dealer == e.self {
		inst = avss.NewDealerWithDegree(async.PID(dealer), e.cfg.N, e.cfg.Deg, e.cfg.T, field.Rand(ctx.Rand()), cb)
	} else {
		inst = avss.NewWithDegree(async.PID(dealer), e.cfg.N, e.cfg.Deg, e.cfg.T, cb)
	}
	e.inAVSS[id] = inst
	ctx.Spawn(id, inst)
}

// dealingDone records a completed dealing and re-evaluates the dealer-
// readiness predicate plus overall progress.
func (e *Engine) dealingDone(id string, dealer int) func(*proto.Ctx, field.Element) {
	return func(ctx *proto.Ctx, share field.Element) {
		e.inShare[id] = share
		e.inDone[id] = true
		e.checkDealerReady(ctx)
		e.step(ctx)
	}
}

// checkDealerReady marks dealers whose full dealing set completed locally.
func (e *Engine) checkDealerReady(ctx *proto.Ctx) {
	n := e.cfg.N
	c := e.cfg.Circuit
	for d := 0; d < n; d++ {
		if e.coreMk[d] {
			continue
		}
		ready := true
		for s := 0; s < c.InputSlots(d) && ready; s++ {
			ready = e.inDone[e.idIn(d, s)]
		}
		for g, gate := range c.Gates() {
			if !ready {
				break
			}
			if gate.Op != circuit.OpRandBit {
				continue
			}
			ready = e.inDone[e.idRho(g, d)]
			if e.Errorless() {
				for l := 1; l <= e.cfg.Deg && ready; l++ {
					ready = e.inDone[e.idMask(g, l, d)]
				}
			}
		}
		if ready {
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
	id := e.idIn(gate.Player, gate.Slot)
	if !e.coreHas(gate.Player) {
		// Excluded dealer: public default input.
		e.wires[g] = wireVal{ready: true, public: true, v: e.cfg.DefaultInput}
		return true
	}
	if !e.inDone[id] {
		return false // AVSS will complete eventually (core membership)
	}
	e.wires[g] = wireVal{ready: true, v: e.inShare[id]}
	return true
}

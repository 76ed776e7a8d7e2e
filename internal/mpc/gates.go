package mpc

import (
	"strconv"

	"asyncmediator/internal/acs"
	"asyncmediator/internal/async"
	"asyncmediator/internal/avss"
	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/shamir"
)

// evalMulGate progresses multiplication gate g (operand wires aw, bw);
// returns true if the output wire became ready. Public operands degrade to
// local scalar arithmetic; secret*secret runs the resharing protocol.
func (e *Engine) evalMulGate(ctx *proto.Ctx, g, aw, bw int) bool {
	a, b := e.wires[aw], e.wires[bw]
	if !a.ready || !b.ready {
		return false
	}
	if a.public && b.public {
		e.wires[g] = wireVal{ready: true, public: true, v: a.v.Mul(b.v)}
		return true
	}
	if a.public || b.public {
		// Scalar multiplication of a share is local.
		e.wires[g] = wireVal{ready: true, v: a.v.Mul(b.v)}
		return true
	}
	ms := e.muls[g]
	if ms == nil {
		ms = &mulState{}
		e.muls[g] = ms
		e.startReshare(ctx, ms, a.v.Mul(b.v), g, "mul", "mulcs")
	}
	if ms.completed {
		return false // already produced (shouldn't happen: wire marked ready)
	}
	share, ok := e.reshareResult(ms)
	if !ok {
		return false
	}
	ms.completed = true
	e.wires[g] = wireVal{ready: true, v: share}
	return true
}

// startReshare begins gate g's degree-reduction subprotocol: this party
// deals a fresh degree-t sharing of its (degree-2t) product share under
// "<inst>/<kind>/<g>/<dealer>", spawns receiver instances for all other
// dealers, and joins the per-gate core agreement "<inst>/<csKind>/<g>".
func (e *Engine) startReshare(ctx *proto.Ctx, ms *mulState, myProduct field.Element, g int, kind, csKind string) {
	n, t := e.cfg.N, e.cfg.T
	ms.myShares = make(map[int]field.Element)
	ms.csID = proto.ChildID(e.inst, csKind, g)
	for d := 0; d < n; d++ {
		d := d
		cb := func(cc *proto.Ctx, shares []field.Element) {
			ms.myShares[d] = shares[0]
			if ms.cs != nil {
				ms.cs.MarkReady(cc.For(ms.csID), d)
			}
			e.step(cc)
		}
		id := proto.ChildID(e.inst, kind, g, d)
		if d == e.self {
			ctx.Spawn(id, avss.NewDealer(async.PID(d), n, e.cfg.Deg, t, []field.Element{myProduct}, cb))
		} else {
			ctx.Spawn(id, avss.New(async.PID(d), n, 1, e.cfg.Deg, t, cb))
		}
	}
	ms.cs = acs.NewCoreSet(n, t, e.cfg.Coin, func(cc *proto.Ctx, members []int) {
		ms.members = members
		ms.haveCore = true
		e.step(cc)
	})
	ctx.Spawn(ms.csID, ms.cs)
	// Mark already-completed dealings (possible when spawned late), in
	// dealer order: each mark may propose to an agreement, and a seeded
	// run must send its proposals in one order.
	for d := 0; d < n; d++ {
		if _, ok := ms.myShares[d]; ok {
			ms.cs.MarkReady(ctx.For(ms.csID), d)
		}
	}
}

// reshareResult combines the agreed resharings into the degree-reduced
// share: z_j = sum_{i in S} lambda_i * reshare_i(j), where lambda are the
// Lagrange weights reconstructing h(0) from {h(i+1) : i in S} for the
// degree-2t product polynomial h. Requires |S| >= 2t+1, guaranteed by
// |S| >= n-t and n > 3t.
func (e *Engine) reshareResult(ms *mulState) (field.Element, bool) {
	if !ms.haveCore {
		return 0, false
	}
	for _, d := range ms.members {
		if _, ok := ms.myShares[d]; !ok {
			return 0, false // awaiting a core member's resharing (totality)
		}
	}
	lambda := e.lagWeights(ms.members)
	if lambda == nil {
		return 0, false
	}
	var z field.Element
	for i, d := range ms.members {
		z = z.Add(lambda[i].Mul(ms.myShares[d]))
	}
	return z, true
}

// lagWeights returns the cached Lagrange recombination weights for the
// given member set, computing them (one batched kernel call) on first
// use. The engine is single-threaded per party, so the cache needs no
// locking. Returns nil on duplicate members (cannot happen for honest
// core sets).
func (e *Engine) lagWeights(members []int) []field.Element {
	var buf [64]byte
	key := buf[:0]
	for _, d := range members {
		key = strconv.AppendInt(key, int64(d), 10)
		key = append(key, ',')
	}
	if w, ok := e.lagCache[string(key)]; ok {
		return w
	}
	xs := make([]field.Element, len(members))
	for i, d := range members {
		xs[i] = shamir.XOf(d)
	}
	w, err := poly.LagrangeCoeffsAtZero(xs)
	if err != nil {
		return nil
	}
	e.lagCache[string(key)] = w
	return w
}

// evalRandBit progresses a random-bit gate.
//
// r is the sum of the core dealers' contributions (uniform, secret).
// c = r^2 is opened publicly; with s = sqrt(c) canonical, the bit share is
// b = (r/s + 1) / 2, computed locally. r = +s or -s with equal
// probability, so b is a uniform bit, and the adversary's view (t shares
// of r plus the value c) is symmetric under the sign flip, so b stays
// hidden.
//
// Errorless regime (n > 4t): c is opened directly from the local degree-2t
// sharing r^2 + z, where z is a fresh zero-constant masking polynomial of
// degree 2t built from the dealers' mask sharings (z re-randomizes the
// high coefficients which would otherwise leak the sign).
// Epsilon regime (3t < n <= 4t): the degree-2t sharing cannot be opened
// robustly (needs 3t+1 agreeing points > n-t), so r^2 is first degree-
// reduced by resharing, then opened.
func (e *Engine) evalRandBit(ctx *proto.Ctx, g int) bool {
	rb := e.rbs[g]
	deg := e.cfg.Deg

	if !rb.haveR {
		// Sum core contributions once every core dealing completed here.
		for _, d := range e.core {
			if e.dealt[d] == nil {
				return false
			}
		}
		var r, z field.Element
		for _, d := range e.core {
			r = r.Add(e.dealt[d][e.rbSlot(g, d)])
		}
		if e.Errorless() {
			// z_j = sum_l x_j^l * W_l(x_j), W_l = sum of core mask dealings.
			xj := shamir.XOf(e.self)
			xp := xj
			for l := 1; l <= deg; l++ {
				var wl field.Element
				for _, d := range e.core {
					wl = wl.Add(e.dealt[d][e.rbSlot(g, d)+l])
				}
				z = z.Add(xp.Mul(wl))
				xp = xp.Mul(xj)
			}
		}
		rb.haveR = true
		rb.rShare = r
		rb.zShare = z
	}

	if e.Errorless() {
		if !rb.opened {
			e.openSquare(ctx, rb, g, 2*deg, rb.rShare.Mul(rb.rShare).Add(rb.zShare))
		}
	} else {
		// Epsilon regime: degree-reduce r^2 via resharing, then open.
		if rb.mul.myShares == nil {
			e.startReshare(ctx, &rb.mul, rb.rShare.Mul(rb.rShare), g, "rbmul", "rbmulcs")
		}
		if !rb.haveProd {
			share, ok := e.reshareResult(&rb.mul)
			if !ok {
				return false
			}
			rb.haveProd = true
			rb.prodWire = share
		}
		if !rb.opened {
			e.openSquare(ctx, rb, g, deg, rb.prodWire)
		}
	}

	if !rb.haveC {
		return false
	}
	if rb.c == 0 {
		// r = 0 (probability 1/P): fall back to the public bit 0.
		e.wires[g] = wireVal{ready: true, public: true, v: 0}
		return true
	}
	s, ok := rb.c.Sqrt()
	if !ok {
		// c is not a square: only possible under corruption beyond the
		// model (or epsilon-regime resharing corruption). Public 0 keeps
		// all honest parties consistent.
		e.wires[g] = wireVal{ready: true, public: true, v: 0}
		return true
	}
	// b = (r/s + 1) * inv2, share-local.
	bShare := rb.rShare.Mul(s.Inv()).Add(1).Mul(inv2)
	e.wires[g] = wireVal{ready: true, v: bShare}
	return true
}

// openSquare opens random-bit gate g's square c publicly, as
// "<inst>/rbopen/<g>", from a degree-deg sharing of which share is this
// party's point.
func (e *Engine) openSquare(ctx *proto.Ctx, rb *rbState, g, deg int, share field.Element) {
	rb.opened = true
	id := proto.ChildID(e.inst, "rbopen", g)
	op := avss.NewPublicOpen(e.cfg.N, deg, e.cfg.T, func(cc *proto.Ctx, v field.Element) {
		rb.haveC = true
		rb.c = v
		e.step(cc)
	})
	ctx.Spawn(id, op)
	op.Input(ctx.For(id), share)
}

// feedOutputs pushes ready output wires into their opening instances.
func (e *Engine) feedOutputs(ctx *proto.Ctx) {
	if !e.outFired && e.outWant == 0 && e.haveCore {
		// No outputs addressed to this party: completion means having
		// discharged all sending duties, i.e. all wires evaluated.
		all := true
		for _, w := range e.wires {
			if !w.ready {
				all = false
				break
			}
		}
		if all {
			e.outFired = true
			if e.cfg.OnOutput != nil {
				e.cfg.OnOutput(ctx, map[int]field.Element{})
			}
		}
	}
	for oi, out := range e.cfg.Circuit.Outputs() {
		w := e.wires[out.W]
		if !w.ready {
			continue
		}
		op := e.outOpens[oi]
		if w.public {
			// Public value: the target learns it locally; no traffic.
			if out.Player == e.self {
				e.onOutputValue(ctx, oi, w.v)
			}
			continue
		}
		op.Input(ctx.For(e.outIDs[oi]), w.v)
	}
}

// onOutputValue records a reconstructed output for this party.
func (e *Engine) onOutputValue(ctx *proto.Ctx, oi int, v field.Element) {
	out := e.cfg.Circuit.Outputs()[oi]
	if out.Player != e.self {
		return
	}
	if _, dup := e.outVals[oi]; dup {
		return
	}
	e.outVals[oi] = v
	if !e.outFired && len(e.outVals) == e.outWant {
		e.outFired = true
		if e.cfg.OnOutput != nil {
			vals := make(map[int]field.Element, len(e.outVals))
			for k, val := range e.outVals {
				vals[k] = val
			}
			e.cfg.OnOutput(ctx, vals)
		}
	}
}

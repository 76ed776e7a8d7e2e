// Package acs implements Agreement on a Common Subset (Ben-Or, Kelmer,
// Rabin 1994) for t < n/3: every party proposes a value, and all honest
// parties agree on the same set of at least n-t (party, value) pairs.
//
// ACS is the asynchronous substitute for a synchronous round: BCG-style
// MPC uses it to agree on whose inputs are in the computation and on which
// resharings feed each multiplication's degree reduction. It composes n
// reliable broadcasts (package rbc) with n binary agreements (package ba).
package acs

import (
	"fmt"

	"asyncmediator/internal/async"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/rbc"
)

// ACS is one common-subset instance. All parties must register it under
// the same instance id.
type ACS struct {
	n, t int
	coin ba.Coin
	// Child instance ids, formatted at Start from the ACS's own id (NOT
	// from the id of whatever child context a callback happens to run
	// under).
	rbcIDs, baIDs []string

	value    []byte
	haveVal  bool
	started  bool
	proposed map[int]bool

	rbcs   map[int]*rbc.RBC
	bas    map[int]*ba.BA
	rbcVal map[int][]byte
	baDec  map[int]int

	completed  bool
	onComplete func(ctx *proto.Ctx, values map[int][]byte)
}

var _ proto.Module = (*ACS)(nil)

// New creates an ACS instance for n parties with fault bound t.
// onComplete fires exactly once with the agreed subset: a map from party
// index to that party's reliably-broadcast value (at least n-t entries).
func New(n, t int, coin ba.Coin, onComplete func(ctx *proto.Ctx, values map[int][]byte)) *ACS {
	return &ACS{
		n:          n,
		t:          t,
		coin:       coin,
		proposed:   make(map[int]bool),
		rbcs:       make(map[int]*rbc.RBC),
		bas:        make(map[int]*ba.BA),
		rbcVal:     make(map[int][]byte),
		baDec:      make(map[int]int),
		onComplete: onComplete,
	}
}

// Completed reports whether the common subset has been output.
func (a *ACS) Completed() bool { return a.completed }

// Start implements proto.Module: it spawns all child instances. The
// party's own proposal arrives via Propose.
func (a *ACS) Start(ctx *proto.Ctx) {
	inst := ctx.Instance()
	a.started = true
	a.rbcIDs = make([]string, a.n)
	a.baIDs = make([]string, a.n)
	for j := 0; j < a.n; j++ {
		a.rbcIDs[j] = fmt.Sprintf("%s/rbc/%d", inst, j)
		a.baIDs[j] = fmt.Sprintf("%s/ba/%d", inst, j)
	}
	for j := 0; j < a.n; j++ {
		j := j
		r := rbc.New(async.PID(j), a.t, func(c *proto.Ctx, v []byte) { a.onRBC(c, j, v) })
		a.rbcs[j] = r
		ctx.Spawn(a.rbcIDs[j], r)
		b := ba.New(a.n, a.t, a.coin, func(c *proto.Ctx, d int) { a.onBA(c, j, d) })
		a.bas[j] = b
		ctx.Spawn(a.baIDs[j], b)
	}
	if a.haveVal {
		self := int(ctx.Self())
		a.rbcs[self].Input(ctx.For(a.rbcIDs[self]), a.value)
	}
}

// Propose supplies this party's value. It may be called before or after
// Start; calling twice is a no-op.
func (a *ACS) Propose(ctx *proto.Ctx, v []byte) {
	if a.haveVal {
		return
	}
	a.value = append([]byte(nil), v...)
	a.haveVal = true
	if a.started {
		self := int(ctx.Self())
		a.rbcs[self].Input(ctx.For(a.rbcIDs[self]), a.value)
	}
}

// Handle implements proto.Module. ACS itself exchanges no direct messages;
// all traffic flows through its children.
func (a *ACS) Handle(ctx *proto.Ctx, from async.PID, body any) {}

func (a *ACS) onRBC(ctx *proto.Ctx, j int, v []byte) {
	if _, dup := a.rbcVal[j]; dup {
		return
	}
	a.rbcVal[j] = v
	// Vote for inclusion of any party whose broadcast we received.
	a.propose(ctx, j, 1)
	a.tryComplete(ctx)
}

func (a *ACS) onBA(ctx *proto.Ctx, j int, d int) {
	if _, dup := a.baDec[j]; dup {
		return
	}
	a.baDec[j] = d
	ones := 0
	for _, dec := range a.baDec {
		if dec == 1 {
			ones++
		}
	}
	if ones >= a.n-a.t {
		// Enough parties are in: vote 0 for everyone still undetermined so
		// all n agreements terminate.
		for k := 0; k < a.n; k++ {
			a.propose(ctx, k, 0)
		}
	}
	a.tryComplete(ctx)
}

func (a *ACS) propose(ctx *proto.Ctx, j, v int) {
	if a.proposed[j] {
		return
	}
	a.proposed[j] = true
	a.bas[j].Propose(ctx.For(a.baIDs[j]), v)
}

func (a *ACS) tryComplete(ctx *proto.Ctx) {
	if a.completed || len(a.baDec) < a.n {
		return
	}
	// All BAs decided; ensure every included party's broadcast arrived
	// (totality guarantees it eventually will).
	out := make(map[int][]byte)
	for j, d := range a.baDec {
		if d != 1 {
			continue
		}
		v, ok := a.rbcVal[j]
		if !ok {
			return
		}
		out[j] = v
	}
	a.completed = true
	if a.onComplete != nil {
		a.onComplete(ctx, out)
	}
}

package acs

import (
	"fmt"

	"asyncmediator/internal/async"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/proto"
)

// CoreSet agrees on a set of at least n-t parties satisfying some local
// completion predicate (e.g. "all of party d's secret sharings finished").
// It is the BA-only core of BKR's ACS: parties mark candidates ready as
// local evidence arrives; one binary agreement per candidate decides
// membership. Validity of the underlying BA guarantees every member was
// marked ready by at least one honest party, whose evidence (by AVSS
// totality) eventually reaches everyone.
type CoreSet struct {
	n, t  int
	coin  ba.Coin
	baIDs []string // child agreement ids, formatted at Start

	bas      []*ba.BA
	early    []int // MarkReady calls arriving before Start
	proposed map[int]bool
	dec      map[int]int

	completed  bool
	members    []int
	onComplete func(ctx *proto.Ctx, members []int)
}

var _ proto.Module = (*CoreSet)(nil)

// NewCoreSet creates a core-set instance. onComplete fires once with the
// sorted member list (size >= n-t).
func NewCoreSet(n, t int, coin ba.Coin, onComplete func(ctx *proto.Ctx, members []int)) *CoreSet {
	return &CoreSet{
		n:          n,
		t:          t,
		coin:       coin,
		proposed:   make(map[int]bool),
		dec:        make(map[int]int),
		onComplete: onComplete,
	}
}

// Completed reports completion and the members.
func (c *CoreSet) Completed() ([]int, bool) { return c.members, c.completed }

// Start implements proto.Module.
func (c *CoreSet) Start(ctx *proto.Ctx) {
	inst := ctx.Instance()
	c.bas = make([]*ba.BA, c.n)
	c.baIDs = make([]string, c.n)
	// Every agreement exists before the first is spawned: a spawn replays
	// the traffic buffered for that instance, which on a party that lags
	// its peers can decide it on the spot and (onBA) propose to the rest.
	for j := range c.bas {
		j := j
		c.bas[j] = ba.New(c.n, c.t, c.coin, func(cc *proto.Ctx, d int) { c.onBA(cc, j, d) })
		c.baIDs[j] = fmt.Sprintf("%s/ba/%d", inst, j)
	}
	for j, b := range c.bas {
		ctx.Spawn(c.baIDs[j], b)
	}
	for _, j := range c.early {
		c.propose(ctx, j, 1)
	}
	c.early = nil
}

// Handle implements proto.Module. CoreSet exchanges no direct messages;
// all traffic flows through its child agreements.
func (c *CoreSet) Handle(ctx *proto.Ctx, from async.PID, body any) {}

// MarkReady votes for candidate j's membership. Call when the local
// completion predicate for j becomes true. Calls before Start are
// buffered and replayed.
func (c *CoreSet) MarkReady(ctx *proto.Ctx, j int) {
	if j < 0 || j >= c.n {
		return
	}
	if c.bas == nil {
		c.early = append(c.early, j)
		return
	}
	c.propose(ctx, j, 1)
}

func (c *CoreSet) propose(ctx *proto.Ctx, j, v int) {
	if c.proposed[j] {
		return
	}
	c.proposed[j] = true
	c.bas[j].Propose(ctx.For(c.baIDs[j]), v)
}

func (c *CoreSet) onBA(ctx *proto.Ctx, j, d int) {
	if _, dup := c.dec[j]; dup {
		return
	}
	c.dec[j] = d
	ones := 0
	for _, v := range c.dec {
		if v == 1 {
			ones++
		}
	}
	if ones >= c.n-c.t {
		for k := 0; k < c.n; k++ {
			c.propose(ctx, k, 0)
		}
	}
	if len(c.dec) == c.n && !c.completed {
		c.completed = true
		c.members = c.members[:0]
		for k := 0; k < c.n; k++ {
			if c.dec[k] == 1 {
				c.members = append(c.members, k)
			}
		}
		if c.onComplete != nil {
			c.onComplete(ctx, append([]int(nil), c.members...))
		}
	}
}

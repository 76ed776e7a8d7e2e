package avss

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/field"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/shamir"
)

// delivery is one message handed to an instance's Handle.
type delivery struct {
	from async.PID
	body any
}

// ignorable lists deliveries an adversary can add next to the delivery
// (from, body) that an instance among n parties must ignore: the same
// message again, the message from a sender outside 0..n-1, a second POINT
// or SHARE with another value from the same sender, and a POINT vector
// one element too long.
func ignorable(n int, from async.PID, body any) []delivery {
	out := []delivery{{from, body}}
	for _, bad := range []async.PID{-1, async.PID(n)} {
		out = append(out, delivery{bad, body}, delivery{bad, MsgPoint{V: []field.Element{5}}},
			delivery{bad, MsgReady{}}, delivery{bad, MsgShare{V: 5}})
	}
	switch m := body.(type) {
	case MsgPoint:
		other := slices.Clone(m.V)
		other[0] = other[0].Add(1)
		out = append(out, delivery{from, MsgPoint{V: other}}, delivery{from, MsgPoint{V: append(slices.Clone(m.V), 5)}})
	case MsgShare:
		out = append(out, delivery{from, MsgShare{V: m.V.Add(1)}})
	}
	return out
}

// checkTallies reports a per-sender tally of the sharing outside 0..n.
func (a *AVSS) checkTallies() error {
	if a.got.Len() > a.n || a.matches.Len() > a.got.Len() || a.readies.Len() > a.n {
		return fmt.Errorf("%d points, %d matches, %d readies among %d parties",
			a.got.Len(), a.matches.Len(), a.readies.Len(), a.n)
	}
	return nil
}

// hostile hands its module every real delivery followed by the ignorable
// deliveries next to it, and fails the test on a tally out of range.
type hostile struct {
	proto.Module
	n     int
	check func() error
	t     *testing.T
}

func (h hostile) Handle(ctx *proto.Ctx, from async.PID, body any) {
	h.Module.Handle(ctx, from, body)
	for _, d := range ignorable(h.n, from, body) {
		h.Module.Handle(ctx, d.from, d.body)
		if err := h.check(); err != nil {
			h.t.Fatalf("after %T%+v from %d: %v", d.body, d.body, d.from, err)
		}
	}
}

// TestHostileDeliveriesChangeNothing runs sharings twice, once with every
// honest party also fed the ignorable deliveries next to each real one,
// and requires the same shares and the same message count. The dealer is
// honest, or withholds one party's row so that party recovers it.
func TestHostileDeliveriesChangeNothing(t *testing.T) {
	for _, withhold := range []bool{false, true} {
		for seed := int64(0); seed < 6; seed++ {
			n, tf := 9, 2
			secret := field.Element(uint64(seed) + 500)
			var byz map[int]async.Process
			if withhold {
				byz = map[int]async.Process{0: &withheldDealer{n: n, t: tf, secret: secret, hide: map[int]bool{4: true}}}
			}
			run := func(wrap func(*AVSS) proto.Module) ([][]field.Element, int) {
				return runSharing(t, n, tf, tf, []field.Element{secret}, byz, async.NewRandomScheduler(seed), seed, wrap)
			}
			honest, honestMsgs := run(nil)
			hostileShares, hostileMsgs := run(func(a *AVSS) proto.Module {
				return hostile{a, n, a.checkTallies, t}
			})
			if hostileMsgs != honestMsgs {
				t.Fatalf("withhold=%v seed %d: %d messages, honest %d", withhold, seed, hostileMsgs, honestMsgs)
			}
			for i := range honest {
				if _, isByz := byz[i]; isByz {
					continue
				}
				if honest[i] == nil || !slices.Equal(hostileShares[i], honest[i]) {
					t.Fatalf("withhold=%v seed %d: party %d share %v, honest %v", withhold, seed, i, hostileShares[i], honest[i])
				}
			}
		}
	}
}

// runOpen opens shares publicly among len(shares) parties and returns
// each party's value (nil if it opened none) and the messages sent.
func runOpen(t *testing.T, deg, tf int, shares []field.Element, seed int64, wrap func(*Open) proto.Module) ([]*field.Element, int) {
	t.Helper()
	n := len(shares)
	got := make([]*field.Element, n)
	procs := make([]async.Process, n)
	for i := range shares {
		i := i
		h := proto.NewHost()
		o := NewPublicOpen(n, deg, tf, func(ctx *proto.Ctx, v field.Element) { vv := v; got[i] = &vv })
		var m proto.Module = o
		if wrap != nil {
			m = wrap(o)
		}
		if err := h.Register("open", m); err != nil {
			t.Fatal(err)
		}
		h.OnStart(func(env *async.Env) { o.Input(h.Ctx(env, "open"), shares[i]) })
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: async.NewRandomScheduler(seed), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return got, res.Stats.MessagesSent
}

// TestOpenHostileDeliveriesChangeNothing is TestHostileDeliveriesChangeNothing
// for public openings with up to t corrupted shares.
func TestOpenHostileDeliveriesChangeNothing(t *testing.T) {
	n, tf := 9, 2
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		secret := field.Element(uint64(seed) + 900)
		sh, err := shamir.Split(rng, secret, n, tf)
		if err != nil {
			t.Fatal(err)
		}
		shares := make([]field.Element, n)
		for i, s := range sh {
			shares[i] = s.Y
		}
		for c := 0; c < int(seed)%(tf+1); c++ {
			shares[rng.Intn(n)] = field.Element(rng.Uint64() % 1000)
		}
		honest, honestMsgs := runOpen(t, tf, tf, shares, seed, nil)
		hostileVals, hostileMsgs := runOpen(t, tf, tf, shares, seed, func(o *Open) proto.Module {
			return hostile{o, n, func() error {
				if o.got.Len() > n {
					return fmt.Errorf("%d shares among %d parties", o.got.Len(), n)
				}
				return nil
			}, t}
		})
		if hostileMsgs != honestMsgs {
			t.Fatalf("seed %d: %d messages, honest %d", seed, hostileMsgs, honestMsgs)
		}
		for i := range honest {
			if honest[i] == nil || *honest[i] != secret || hostileVals[i] == nil || *hostileVals[i] != secret {
				t.Fatalf("seed %d: party %d opened %v, honest %v, want %v", seed, i, hostileVals[i], honest[i], secret)
			}
		}
	}
}

package ba

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/proto"
)

// delivery is one message handed to an instance's Handle.
type delivery struct {
	from async.PID
	body any
}

// ignorable lists deliveries an adversary can add next to the delivery
// (from, body) that an instance among n parties must ignore: the same
// message again, the message from a sender outside 0..n-1, the message
// for round 0 or past maxRounds, a value outside {0, 1}, a second AUX of
// the other value from the same sender, and a far-round estimate from a
// sender outside 0..n-1.
func ignorable(n int, from async.PID, body any) []delivery {
	out := []delivery{{from, body}}
	for _, bad := range []async.PID{-1, async.PID(n)} {
		out = append(out, delivery{bad, body},
			delivery{bad, MsgEst{Round: maxRounds, V: 0}},
			delivery{bad, MsgAux{Round: maxRounds, V: 1}})
	}
	switch m := body.(type) {
	case MsgEst:
		out = append(out, delivery{from, MsgEst{Round: 0, V: m.V}},
			delivery{from, MsgEst{Round: maxRounds + 1, V: m.V}},
			delivery{from, MsgEst{Round: m.Round, V: 2}},
			delivery{from, MsgEst{Round: m.Round, V: -1}})
	case MsgAux:
		out = append(out, delivery{from, MsgAux{Round: m.Round, V: 1 - m.V}},
			delivery{from, MsgAux{Round: 0, V: m.V}},
			delivery{from, MsgAux{Round: maxRounds + 1, V: m.V}},
			delivery{from, MsgAux{Round: m.Round, V: 2}})
	case MsgDone:
		out = append(out, delivery{from, MsgDone{V: 2}}, delivery{from, MsgDone{V: -1}})
	}
	return out
}

// checkTallies reports a per-round or DONE tally outside 0..n, an AUX
// count that does not match its senders, or state for a round outside
// 1..maxRounds.
func (b *BA) checkTallies() error {
	for r, st := range b.rounds {
		if r < 1 || r > maxRounds {
			return fmt.Errorf("state for round %d", r)
		}
		for v := range st.estRecv {
			if l := st.estRecv[v].Len(); l < 0 || l > b.n {
				return fmt.Errorf("round %d: %d EST %d senders among %d parties", r, l, v, b.n)
			}
		}
		if l := st.auxRecv.Len(); l < 0 || l > b.n || st.auxCount[0]+st.auxCount[1] != l {
			return fmt.Errorf("round %d: %d AUX senders, counts %v, among %d parties", r, l, st.auxCount, b.n)
		}
	}
	for v := range b.doneRecv {
		if l := b.doneRecv[v].Len(); l < 0 || l > b.n {
			return fmt.Errorf("%d DONE %d senders among %d parties", l, v, b.n)
		}
	}
	return nil
}

// tallied returns how many sender marks the instance's tallies hold.
func (b *BA) tallied() int {
	sum := b.doneRecv[0].Len() + b.doneRecv[1].Len()
	for _, st := range b.rounds {
		sum += st.estRecv[0].Len() + st.estRecv[1].Len() + st.auxRecv.Len()
	}
	return sum
}

// hostile hands its BA every real delivery followed by the ignorable
// deliveries next to it, and fails the test on a tally out of range.
type hostile struct {
	*BA
	t *testing.T
}

func (h hostile) Handle(ctx *proto.Ctx, from async.PID, body any) {
	h.BA.Handle(ctx, from, body)
	for _, d := range ignorable(h.n, from, body) {
		h.BA.Handle(ctx, d.from, d.body)
		if err := h.BA.checkTallies(); err != nil {
			h.t.Fatalf("after %T%+v from %d: %v", d.body, d.body, d.from, err)
		}
	}
}

// TestHostileDeliveriesChangeNothing runs agreements twice, once with
// every honest party also fed the ignorable deliveries next to each real
// one, and requires the same decisions and the same message count.
func TestHostileDeliveriesChangeNothing(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{4, 1}, {7, 2}} {
		for seed := int64(0); seed < 8; seed++ {
			props := make([]int, cfg.n)
			rng := rand.New(rand.NewSource(seed))
			for i := range props {
				props[i] = rng.Intn(2)
			}
			run := func(wrap func(*BA) proto.Module) baResult {
				return runBAWrapped(t, cfg.n, cfg.t, props, sharedCoins(seed), nil,
					async.NewRandomScheduler(seed), seed, wrap)
			}
			honest := run(nil)
			hostile := run(func(b *BA) proto.Module { return hostile{b, t} })
			if fmt.Sprint(hostile.decisions) != fmt.Sprint(honest.decisions) || hostile.msgs != honest.msgs {
				t.Fatalf("n=%d seed %d: hostile run decided %v in %d messages, honest %v in %d",
					cfg.n, seed, hostile.decisions, hostile.msgs, honest.decisions, honest.msgs)
			}
			for i, d := range honest.decisions {
				if d < 0 {
					t.Fatalf("n=%d seed %d: party %d undecided", cfg.n, seed, i)
				}
			}
		}
	}
}

// testCtx returns a Ctx for instance "ba" at party 0 of n, whose sends go
// nowhere.
func testCtx(n int, b *BA) *proto.Ctx {
	h := proto.NewHost()
	if err := h.Register("ba", b); err != nil {
		panic(err)
	}
	return h.Ctx(async.NewRemote(0, n, 0, 1, nil).Env(), "ba")
}

// TestFarRoundEstimateIsBounded: one estimate for round maxRounds from a
// valid sender costs one round's state, not state for every round below
// it.
func TestFarRoundEstimateIsBounded(t *testing.T) {
	const n = 4
	var b *BA
	fresh := func() { b = New(n, 1, SharedCoin{Seed: 1}, nil) }
	fresh()
	ctx := testCtx(n, b)
	newOnly := testing.AllocsPerRun(100, fresh)
	withEst := testing.AllocsPerRun(100, func() {
		fresh()
		b.Handle(ctx, 1, MsgEst{Round: maxRounds, V: 1})
	})
	if len(b.rounds) != 1 || b.rounds[maxRounds].estRecv[1].Len() != 1 {
		t.Fatalf("one far estimate left state for %d rounds", len(b.rounds))
	}
	t.Logf("New %.0f, with estimate %.0f", newOnly, withEst)
	if extra := withEst - newOnly; extra > 4 {
		t.Fatalf("one far estimate allocated %.0f objects (New alone: %.0f)", extra, newOnly)
	}
}

// FuzzBAHandle feeds one BA instance (n=4, t=1, party 0) a byte string
// decoded as deliveries of 5 bytes each: sender (int8), kind (EST, AUX,
// DONE, or a local Propose), round (int16, little-endian) and value
// (int8). No input may panic, every tally stays within 0..n, and a
// delivery from a sender outside 0..n-1 marks no tally.
func FuzzBAHandle(f *testing.F) {
	enc := func(ds ...[4]int) []byte {
		var out []byte
		for _, d := range ds {
			out = append(out, byte(int8(d[0])), byte(d[1]))
			out = binary.LittleEndian.AppendUint16(out, uint16(int16(d[2])))
			out = append(out, byte(int8(d[3])))
		}
		return out
	}
	// An honest first round that decides 1 (coin permitting), then
	// out-of-range senders, rounds and values.
	f.Add(enc([4]int{0, 3, 0, 1},
		[4]int{1, 0, 1, 1}, [4]int{2, 0, 1, 1}, [4]int{3, 0, 1, 1},
		[4]int{1, 1, 1, 1}, [4]int{2, 1, 1, 1}, [4]int{3, 1, 1, 1},
		[4]int{1, 2, 0, 1}, [4]int{2, 2, 0, 1}, [4]int{3, 2, 0, 1}))
	f.Add(enc([4]int{-1, 0, 1, 0}, [4]int{4, 1, 1, 0}, [4]int{1, 0, maxRounds, 0},
		[4]int{1, 0, maxRounds + 1, 0}, [4]int{1, 0, 0, 1}, [4]int{2, 1, 1, 2},
		[4]int{2, 2, 0, -1}, [4]int{1, 0, 1, 0}, [4]int{1, 0, 1, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 4
		b := New(n, 1, SharedCoin{Seed: 1}, nil)
		ctx := testCtx(n, b)
		for ; len(data) >= 5; data = data[5:] {
			from := async.PID(int8(data[0]))
			round := int(int16(binary.LittleEndian.Uint16(data[2:4])))
			v := int(int8(data[4]))
			before := b.tallied()
			switch data[1] % 4 {
			case 0:
				b.Handle(ctx, from, MsgEst{Round: round, V: v})
			case 1:
				b.Handle(ctx, from, MsgAux{Round: round, V: v})
			case 2:
				b.Handle(ctx, from, MsgDone{V: v})
			case 3:
				b.Propose(ctx, v)
			}
			if err := b.checkTallies(); err != nil {
				t.Fatal(err)
			}
			if (from < 0 || from >= n) && b.tallied() != before {
				t.Fatalf("a delivery from %d marked a tally", from)
			}
		}
	})
}

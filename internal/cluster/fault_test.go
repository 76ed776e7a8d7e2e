package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// faultRun is what one run of a fault schedule delivered and counted.
type faultRun struct {
	streams map[string][]int // payload indexes per stream "from>to", in arrival order
	stats   []Stats          // per player
}

// runFaultSchedule plays fixed traffic on a three-player mesh over an
// in-memory network while the fault schedule that seed picks runs: the
// connection of stream 0->1 dies with one of its frames in flight, the
// link between players 1 and 2 is slow, and players 0 and 2 are
// partitioned, each refused a few redials, and healed. Every player sends
// each peer one payload to bring every link up, then the schedule is
// armed and each sends msgs more.
func runFaultSchedule(t *testing.T, seed int64) faultRun {
	t.Helper()
	const n, msgs = 3, 200
	mn := newMemNet()
	trs := meshOn(t, mn, n, nil)
	host := func(i int) string { return trs[i].Addr() }
	run := faultRun{streams: make(map[string][]int)}
	next := make([]map[int]uint64, n) // per receiver, per sender: the next seq
	for i := range next {
		next[i] = map[int]uint64{}
	}
	// send queues payloads from..to-1 on every stream; recv takes count
	// frames per stream, checking each stream's frames arrive exactly once
	// and in order.
	send := func(from, to int) {
		for i, tr := range trs {
			for j := range trs {
				for m := from; m < to && i != j; m++ {
					tr.Send(j, payload(i, m))
				}
			}
		}
	}
	recv := func(count int) {
		deadline := time.After(10 * time.Second)
		for j, tr := range trs {
			for got := 0; got < count*(n-1); got++ {
				select {
				case f := <-tr.Inbox():
					sender := int(binary.BigEndian.Uint64(f.Payload[:8]))
					idx := int(binary.BigEndian.Uint64(f.Payload[8:]))
					if next[j][f.From]++; f.Seq != next[j][f.From] || sender != f.From {
						t.Fatalf("stream %d->%d: seq %d from %d, want seq %d", f.From, j, f.Seq, sender, next[j][f.From])
					}
					key := fmt.Sprintf("%d>%d", f.From, j)
					run.streams[key] = append(run.streams[key], idx)
				case <-deadline:
					t.Fatalf("player %d: timed out after %d/%d frames", j, got, count*(n-1))
				}
			}
		}
	}
	send(0, 1)
	recv(1)

	rng := rand.New(rand.NewSource(seed))
	plan := &faultPlan{
		dropStream: streamKey("test", 0, 1),
		dropAt:     1 + rng.Intn(msgs),
		delayPair:  hostPair{host(1), host(2)},
		delay:      time.Duration(1+rng.Intn(3)) * time.Millisecond,
		partStream: streamKey("test", 0, 2),
		partAt:     1 + rng.Intn(msgs),
		partPair:   hostPair{host(0), host(2)},
		refuse:     1 + rng.Intn(3),
	}
	mn.arm(plan)
	send(1, 1+msgs)
	recv(msgs)

	// Settle: every frame acknowledged, and the links the faults cut back
	// up (players 0 and 2 redial, 0 twice).
	settled := func() bool {
		for _, tr := range trs {
			if st := tr.Stats(); st.ResendBuffered != 0 || st.QueueLen != 0 {
				return false
			}
		}
		return trs[0].Stats().Reconnects >= 2 && trs[2].Stats().Reconnects >= 1
	}
	if !mn.await(settled) {
		t.Fatalf("seed %d: the mesh never settled: %+v %+v %+v", seed, trs[0].Stats(), trs[1].Stats(), trs[2].Stats())
	}
	for _, tr := range trs {
		run.stats = append(run.stats, tr.Stats())
	}
	t.Logf("seed %d: drop 0->1 at frame %d, 1<->2 delayed %v, 0|2 cut at frame %d of 0->2, each refused %d redials; resent %d, duplicates %d",
		seed, plan.dropAt, plan.delay, plan.partAt, plan.refuse, run.stats[0].Resent+run.stats[2].Resent,
		run.stats[0].Duplicates+run.stats[1].Duplicates+run.stats[2].Duplicates)

	// What the schedule fixes, whatever the timing.
	want := []struct{ reconnects, dialErrs int64 }{{2, int64(plan.refuse)}, {0, 0}, {1, int64(plan.refuse)}}
	var resent, dups int64
	for i, st := range run.stats {
		if st.Sent != (n-1)*(1+msgs) || st.Delivered != (n-1)*(1+msgs) {
			t.Errorf("seed %d: player %d sent %d and delivered %d, want %d each", seed, i, st.Sent, st.Delivered, (n-1)*(1+msgs))
		}
		if st.Reconnects != want[i].reconnects || st.DialErrors != want[i].dialErrs {
			t.Errorf("seed %d: player %d: %d reconnects, %d dial errors; want %d, %d",
				seed, i, st.Reconnects, st.DialErrors, want[i].reconnects, want[i].dialErrs)
		}
		resent += st.Resent
		dups += st.Duplicates
	}
	// The ACK timer decides how much is replayed, not whether: each cut
	// lost a frame of player 0's, which only a replay delivers, and every
	// duplicate is a replayed frame.
	if run.stats[0].Resent < 2 || dups > resent {
		t.Errorf("seed %d: player 0 resent %d; %d duplicates of %d resent frames", seed, run.stats[0].Resent, dups, resent)
	}
	for key, idxs := range run.streams {
		for i, idx := range idxs {
			if idx != i {
				t.Fatalf("seed %d: stream %s: payload %d at position %d", seed, key, idx, i)
			}
		}
	}
	return run
}

// TestFaultScheduleReplays runs one seeded fault schedule twice: a
// connection dropped with a frame in flight, a delayed link, and a
// partition that heals. Both runs deliver every payload exactly once and
// in order, the same sequence on every stream, and count the same Sent,
// Delivered, Reconnects and DialErrors on every player.
func TestFaultScheduleReplays(t *testing.T) {
	const seed = 42
	first := runFaultSchedule(t, seed)
	second := runFaultSchedule(t, seed)
	if !reflect.DeepEqual(first.streams, second.streams) {
		t.Fatalf("the two runs delivered different payload sequences")
	}
	for i := range first.stats {
		a, b := first.stats[i], second.stats[i]
		if a.Sent != b.Sent || a.Delivered != b.Delivered || a.Reconnects != b.Reconnects || a.DialErrors != b.DialErrors {
			t.Fatalf("player %d: the runs counted %+v and %+v", i, a, b)
		}
	}
}

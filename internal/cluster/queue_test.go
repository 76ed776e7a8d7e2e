package cluster

import (
	"testing"
	"time"
)

// TestSendNeverBlocks: sends to a peer that cannot be reached yet return
// at once and wait in the link's pending queue, however many there are;
// once the address arrives they are delivered exactly once, in order.
func TestSendNeverBlocks(t *testing.T) {
	const msgs = 10000
	a, err := New(Config{Self: 0, N: 2, ClusterID: "pending"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for m := 0; m < msgs; m++ {
			a.Send(1, payload(0, m))
		}
	}()
	select {
	case <-sent:
	case <-time.After(time.Second):
		t.Fatalf("%d sends to an unaddressed peer did not return within 1s", msgs)
	}
	if q := a.Stats().QueueLen; q != msgs {
		t.Fatalf("QueueLen %d, want %d", q, msgs)
	}

	b, err := New(Config{Self: 1, N: 2, ClusterID: "pending"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(1, b.Addr())
	expectInOrder(t, collect(t, b, msgs, 10*time.Second), 1, msgs)
}

// TestLoopbackNeverBlocksConsumer: the inbox's own consumer sends to
// itself far more frames than the inbox holds without reading any, as a
// protocol node once did when it broadcast mid-delivery. With no self
// loopback the sends return at once and leave nothing queued or
// delivered; a wire.Node delivers its self-sends in-process instead.
func TestLoopbackNeverBlocksConsumer(t *testing.T) {
	const msgs = 10000
	tr, err := New(Config{Self: 0, N: 1, ClusterID: "loopback"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for m := 0; m < msgs; m++ {
			tr.Send(0, payload(0, m))
		}
	}()
	select {
	case <-sent:
	case <-time.After(10 * time.Second):
		t.Fatalf("self-sends blocked with %d frames in the unread inbox", len(tr.Inbox()))
	}
	if st := tr.Stats(); st.Sent != 0 || st.Delivered != 0 || st.QueueLen != 0 {
		t.Fatalf("self-sends were counted or queued: %+v", st)
	}
	select {
	case f := <-tr.Inbox():
		t.Fatalf("a self-send reached the inbox: %+v", f)
	default:
	}
}

// TestSelfLoopback: the transport carries peer streams only, so it has
// no self loopback. A send to self is dropped like one to an
// out-of-range index: nothing is counted, queued or delivered.
func TestSelfLoopback(t *testing.T) {
	tr, err := New(Config{Self: 0, N: 2, ClusterID: "self"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, to := range []int{0, -1, 2} {
		tr.Send(to, payload(0, 0))
	}
	if st := tr.Stats(); st.Sent != 0 || st.QueueLen != 0 {
		t.Fatalf("sends to self or out of range were counted: %+v", st)
	}
	select {
	case f := <-tr.Inbox():
		t.Fatalf("a send to self was delivered: %+v", f)
	default:
	}
}

// TestAcksDelayedAcrossBursts: bursts that arrive closer together than
// the ACK delay share their ACKs, so ten bursts draw fewer than ten,
// and the resend buffer still drains once the stream goes idle.
func TestAcksDelayedAcrossBursts(t *testing.T) {
	const bursts, perBurst = 10, 10
	trs := mesh(t, 2, nil)
	a, b := trs[0], trs[1]

	// Bring the link up and settle its first ACK, so every burst below
	// travels on a live connection.
	a.Send(1, payload(0, 0))
	select {
	case <-b.Inbox():
	case <-time.After(10 * time.Second):
		t.Fatal("first frame not delivered")
	}
	waitDrained(t, a, 1)
	acks0 := a.Stats().Acks

	for burst := 0; burst < bursts; burst++ {
		for m := 0; m < perBurst; m++ {
			a.Send(1, payload(0, 1+burst*perBurst+m))
		}
		time.Sleep(time.Millisecond)
	}
	const total = 1 + bursts*perBurst
	deadline := time.After(10 * time.Second)
	for want := 2; want <= total; want++ {
		select {
		case f := <-b.Inbox():
			if f.Seq != uint64(want) {
				t.Fatalf("frame %d arrived as seq %d", want, f.Seq)
			}
		case <-deadline:
			t.Fatalf("timed out after %d/%d frames", want-1, total)
		}
	}
	waitDrained(t, a, total)
	if acks := a.Stats().Acks - acks0; acks >= bursts {
		t.Errorf("%d bursts drew %d ACKs: ACKs are not delayed", bursts, acks)
	}
}

// waitDrained waits until every one of the frames sent so far is written
// and acknowledged: the resend buffer is empty.
func waitDrained(t *testing.T, tr *Transport, frames int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st := tr.Stats(); st.ResendBuffered != 0 || st.FramesOut < frames; st = tr.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("resend buffer holds %d frames, %d of %d frames counted out", st.ResendBuffered, st.FramesOut, frames)
		}
		time.Sleep(time.Millisecond)
	}
}

package cluster

import (
	"sync"
	"testing"
	"time"
)

// gossipPair builds a two-node mesh where node 1 collects gossip payloads
// through its handler. Node 0's handler stays nil unless set before use.
func gossipPair(t *testing.T, handler1 func(from int, payload []byte)) (*Transport, *Transport) {
	t.Helper()
	t0, err := New(Config{Self: 0, N: 2, ClusterID: "gossip"})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := New(Config{Self: 1, N: 2, ClusterID: "gossip", GossipHandler: handler1})
	if err != nil {
		t0.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })
	t0.SetPeerAddr(1, t1.Addr())
	t1.SetPeerAddr(0, t0.Addr())
	return t0, t1
}

func TestGossipDelivery(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	t0, t1 := gossipPair(t, func(from int, payload []byte) {
		if from != 0 {
			t.Errorf("gossip from %d, want 0", from)
		}
		mu.Lock()
		got = append(got, append([]byte(nil), payload...))
		mu.Unlock()
	})

	// Gossip is best-effort: re-send every interval like a real mesh
	// would and wait for at least one digest to land.
	deadline := time.After(5 * time.Second)
	for {
		t0.Gossip(1, []byte("digest"))
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no gossip delivered within 5s")
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	if string(got[0]) != "digest" {
		t.Fatalf("payload %q, want %q", got[0], "digest")
	}
	mu.Unlock()

	// DATA still flows on the same handshaken connection, untouched by
	// the gossip lane.
	t0.Send(1, []byte("data"))
	select {
	case f := <-t1.Inbox():
		if string(f.Payload) != "data" || f.Seq != 1 {
			t.Fatalf("frame %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DATA frame not delivered alongside gossip")
	}
	if s := t1.Stats(); s.GossipReceived == 0 {
		t.Fatal("receiver counted no gossip frames")
	}
	if s := t0.Stats(); s.GossipSent == 0 {
		t.Fatal("sender counted no gossip frames")
	}
}

// TestGossipIgnoredWithoutHandler pins the compatibility contract: a peer
// with no gossip handler (like a daemon generation that predates the
// frame kind) skips GOSSIP frames and keeps the stream fully usable for
// DATA.
func TestGossipIgnoredWithoutHandler(t *testing.T) {
	t0, t1 := gossipPair(t, nil)
	for i := 0; i < 5; i++ {
		t0.Gossip(1, []byte("ignored"))
	}
	t0.Send(1, []byte("data"))
	select {
	case f := <-t1.Inbox():
		if string(f.Payload) != "data" {
			t.Fatalf("payload %q", f.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DATA frame not delivered after unhandled gossip")
	}
}

// TestGossipDropsWhenPeerUnreachable pins the no-backpressure contract:
// with the peer's address unknown the lane fills and Gossip reports the
// drop instead of blocking the caller.
func TestGossipDropsWhenPeerUnreachable(t *testing.T) {
	tr, err := New(Config{Self: 0, N: 2, ClusterID: "gossip"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// No SetPeerAddr: the link never dials, so nothing drains the lane.
	dropped := false
	for i := 0; i < gossipQueueDepth+1; i++ {
		if !tr.Gossip(1, []byte("x")) {
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("gossip to an unreachable peer never reported a drop")
	}
	if s := tr.Stats(); s.GossipDropped == 0 {
		t.Fatal("GossipDropped counter not incremented")
	}
}

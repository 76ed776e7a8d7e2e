// Package wire runs the repository's protocol processes over the
// cluster transport: a full mesh exchanging protocol messages in one
// strict binary codec (codec.go: a tag byte per payload type, varint
// lengths, no reflection and no type registry). The same Process
// implementations that the deterministic simulator executes — reliable
// broadcast, Byzantine agreement, the full cheap-talk players — run
// unmodified across machine boundaries.
//
// The mesh rides on the hardened cluster transport (internal/cluster):
// per-peer pending queues that never block a send, a versioned HELLO
// handshake scoped to one cluster session, optional mutual TLS, and
// automatic reconnect with sequence-numbered resend buffers, so a
// dropped connection replays its unacknowledged frames instead of
// silently muting a peer. There is one way to host players: the caller
// owns a cluster.Endpoint and builds each node on it (NewNode, SetAddrs,
// Run, Stop), whether one daemon hosts all players or several share
// them; only the addresses differ. Players on different endpoints talk
// over TCP. Players on one endpoint share it, and their streams run
// through in-memory pipes with the same frames, handshake and resend
// buffers, so a play whose players all sit on one endpoint opens no
// socket. Only a player's messages to itself skip the transport: a node
// delivers them in-process, unencoded, as async.Runtime does. A
// broadcast is encoded once, and its peer frames share the bytes.
package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asyncmediator/internal/async"
	"asyncmediator/internal/cluster"
	"asyncmediator/internal/proto"
)

// ErrTimeout marks a Run that hit its deadline before the process halted
// — the wire-level analogue of a deadlocked play. Callers distinguish it
// from transport failures with errors.Is.
var ErrTimeout = errors.New("wire: timeout")

// NodeConfig configures one mesh participant.
type NodeConfig struct {
	// Self is this node's player id in [0, N).
	Self async.PID
	// N is the number of processes in the mesh. Peer addresses come
	// later, via SetAddrs: the cluster transport dials lazily with retry.
	N int
	// Endpoint is the process's cluster endpoint, shared by every node it
	// hosts: its listener, TLS settings and connections. Required.
	Endpoint *cluster.Endpoint
	// ClusterID scopes the transport handshake to one play; every node of
	// a mesh must agree on it (default "local").
	ClusterID string
	// Proc is the protocol process to run.
	Proc async.Process
	// Seed is the play's session seed, the same on every node. The node
	// derives its private randomness from it and Self exactly as
	// async.Runtime derives party Self's, so a cluster node draws what the
	// simulator's party draws for the same session seed.
	Seed int64
}

// Node is one mesh participant executing a Process on the cluster
// transport.
type Node struct {
	cfg    NodeConfig
	remote *async.Remote
	tr     *cluster.Transport

	// self[head:] are the self-addressed payloads Run has yet to
	// deliver, in send order; only the process's goroutine touches them.
	self []any
	head int
	// lastEnv is the envelope send encoded last, and lastEnc its bytes:
	// a broadcast sends one *proto.Envelope to every party in turn, so
	// its peer frames share one read-only encoding. Only the process's
	// goroutine touches them.
	lastEnv *proto.Envelope
	lastEnc []byte

	done    chan struct{}
	stopped sync.Once

	sent        atomic.Int64
	delivered   atomic.Int64
	undecodable atomic.Int64
}

// NodeStats are the node's cumulative traffic counters. Sent counts every
// payload sent (to self included); Delivered counts messages consumed by
// the process's Deliver loop; Undecodable counts inbound frames Run
// dropped because they were not one valid payload — a peer speaking
// another codec, or a corrupt or hostile one. Transport carries the
// underlying link counters (resends, reconnects, duplicates) of peer
// traffic.
type NodeStats struct {
	Sent        int64
	Delivered   int64
	Undecodable int64
	Transport   cluster.Stats
}

// Stats returns a snapshot of the traffic counters. Safe to call from any
// goroutine, including while Run is in flight.
func (n *Node) Stats() NodeStats {
	return NodeStats{Sent: n.sent.Load(), Delivered: n.delivered.Load(), Undecodable: n.undecodable.Load(), Transport: n.tr.Stats()}
}

// Remote returns the node's local game-state backend (moves, wills, halt
// flag). Serving layers read it after Run to assemble a run result.
func (n *Node) Remote() *async.Remote { return n.remote }

// NewNode creates a node and opens its transport on cfg.Endpoint,
// binding the endpoint's listener if it is not bound yet, so peers may
// dial it as soon as this returns.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("wire: nil endpoint")
	}
	if cfg.Proc == nil {
		return nil, fmt.Errorf("wire: nil process")
	}
	tr, err := cfg.Endpoint.Open(cluster.Config{
		Self:      int(cfg.Self),
		N:         cfg.N,
		ClusterID: cfg.ClusterID,
	})
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	n := &Node{cfg: cfg, tr: tr, done: make(chan struct{})}
	n.remote = async.NewRemote(cfg.Self, cfg.N, cfg.N, cfg.Seed, n.send)
	return n, nil
}

// SetAddrs fills the whole peer address table (empty entries and the
// self slot skipped).
func (n *Node) SetAddrs(addrs []string) { n.tr.SetAddrs(addrs) }

// Addr returns the address peers dial: the endpoint's.
func (n *Node) Addr() string { return n.tr.Addr() }

// send queues a self-addressed payload for Run, unencoded, and transmits
// any other through the transport's per-peer pending queue. It never
// blocks, not even when the node's own inbox is full; writes to distinct
// peers never contend on a shared mutex, and a temporarily disconnected
// peer buffers rather than silently dropping. An envelope sent again
// right after it was encoded, as a broadcast sends it, reuses its bytes.
func (n *Node) send(to async.PID, payload any) {
	if to == n.cfg.Self {
		n.sent.Add(1)
		n.self = append(n.self, payload)
		return
	}
	env, isEnv := payload.(*proto.Envelope)
	b := n.lastEnc
	if !isEnv || env == nil || env != n.lastEnv {
		var err error
		if b, err = EncodePayload(payload); err != nil {
			return // unencodable payload: a bug the codec's round-trip tests catch
		}
		if isEnv {
			n.lastEnv, n.lastEnc = env, b
		}
	}
	n.sent.Add(1)
	n.tr.Send(int(to), b)
}

// Run starts the process and delivers its messages until the process
// halts, the timeout elapses, or Stop is called. It returns the decided
// move (if any). Self-addressed payloads are delivered in send order,
// interleaved with transport frames, and never hold off the deadline or
// Stop. Mesh formation is asynchronous: links dial (and redial) in the
// background, so Run does not block on peers that bind late.
//
// Run does NOT tear the transport down when its own process halts: the
// resend buffers may still hold frames a slower peer needs (the
// asynchronous model's honest players relay until everyone is done), so
// the node keeps replaying — and discarding inbound frames — until the
// caller invokes Stop after every node of the play has returned.
func (n *Node) Run(timeout time.Duration) (move any, decided bool, err error) {
	env := n.remote.Env()
	n.cfg.Proc.Start(env)
	deadline := time.After(timeout)
	ready := make(chan struct{}) // closed: its select case is always ready
	close(ready)
	seq := 0
	deliver := func(from async.PID, payload any) {
		msg := async.Message{From: from, To: n.cfg.Self, Seq: seq, Payload: payload}
		seq++
		n.delivered.Add(1)
		n.cfg.Proc.Deliver(env, msg)
	}
	for !n.remote.Halted() {
		var self <-chan struct{} // nil: no self-delivery pending
		if n.head < len(n.self) {
			self = ready
		}
		select {
		case <-self:
			p := n.self[n.head]
			n.self[n.head] = nil
			if n.head++; n.head == len(n.self) {
				n.self, n.head = n.self[:0], 0 // reuse the buffer
			}
			deliver(n.cfg.Self, p)
		case cf := <-n.tr.Inbox():
			payload, derr := DecodePayload(cf.Payload)
			if derr != nil {
				n.undecodable.Add(1) // skip it rather than kill the play
				continue
			}
			// The sender identity is the transport's: the HELLO handshake
			// (and mTLS) authenticated the stream, and the payload carries
			// no sender a peer could forge.
			deliver(async.PID(cf.From), payload)
		case <-deadline:
			go n.drainInbox()
			mv, ok := n.remote.Move()
			return mv, ok, fmt.Errorf("%w after %v", ErrTimeout, timeout)
		case <-n.done:
			mv, ok := n.remote.Move()
			return mv, ok, nil
		}
	}
	go n.drainInbox()
	mv, ok := n.remote.Move()
	return mv, ok, nil
}

// drainInbox discards inbound frames after the local process finished,
// so peers still mid-play are never backpressured into a stall. It exits
// when Stop closes the node.
func (n *Node) drainInbox() {
	for {
		select {
		case <-n.tr.Inbox():
		case <-n.done:
			return
		}
	}
}

// Stop tears the node down and waits for its transport's goroutines. The
// endpoint keeps the transport's connections for the next play; its
// owner closes it.
func (n *Node) Stop() {
	n.stopped.Do(func() {
		close(n.done)
		n.tr.Close() // waits for the transport's goroutines
	})
}

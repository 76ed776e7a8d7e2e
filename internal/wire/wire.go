// Package wire runs the repository's protocol processes over real TCP
// sockets: a full mesh exchanging protocol messages in one strict binary
// codec (codec.go: a tag byte per payload type, varint lengths, no
// reflection and no type registry). The same Process implementations
// that the deterministic simulator executes — reliable broadcast,
// Byzantine agreement, the full cheap-talk players — run unmodified
// across machine boundaries.
//
// The mesh rides on the hardened cluster transport (internal/cluster):
// per-peer pending queues that never block a send, a versioned HELLO
// handshake scoped to one cluster session, optional mutual TLS, and
// automatic reconnect with sequence-numbered resend buffers, so a
// dropped connection replays its unacknowledged frames instead of
// silently muting a peer. A daemon builds every wire play node by node
// (NewNode, Listen, SetAddrs) on its one cluster endpoint, whether one
// daemon hosts all players or several share them; only the addresses
// differ. NewLocalMesh is the one-process shorthand for programs and
// tests that host a whole mesh themselves.
package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asyncmediator/internal/async"
	"asyncmediator/internal/cluster"
)

// ErrTimeout marks a Run that hit its deadline before the process halted
// — the wire-level analogue of a deadlocked play. Callers distinguish it
// from transport failures with errors.Is.
var ErrTimeout = errors.New("wire: timeout")

// NodeConfig configures one mesh participant.
type NodeConfig struct {
	// Self is this node's player id. Entries of Addrs for peers hosted
	// elsewhere may be empty at construction and supplied later via
	// SetAddrs — the cluster transport dials lazily with retry.
	Self  async.PID
	Addrs []string
	// Endpoint is the process's cluster endpoint, shared by every node it
	// hosts: its listener, TLS settings and connections. Nil gives the
	// node an endpoint of its own, listening on Addrs[Self] (or an
	// ephemeral loopback port when that is empty), closed by Stop.
	Endpoint *cluster.Endpoint
	// ClusterID scopes the transport handshake to one play; every node of
	// a mesh must agree on it (default "local").
	ClusterID string
	// Players is the number of game players (defaults to len(Addrs)).
	Players int
	// Proc is the protocol process to run.
	Proc async.Process
	// Seed is the play's session seed, the same on every node. The node
	// derives its private randomness from it and Self exactly as
	// async.Runtime derives party Self's, so a cluster node draws what the
	// simulator's party draws for the same session seed.
	Seed int64
	// TraceID, when set, is announced in the transport's HELLO so the
	// play's distributed trace is visible at the wire layer.
	TraceID string
}

// Node is one mesh participant executing a Process on the cluster
// transport.
type Node struct {
	cfg    NodeConfig
	remote *async.Remote
	tr     *cluster.Transport
	ownEP  *cluster.Endpoint // the endpoint Listen made (nil: cfg.Endpoint's)

	done    chan struct{}
	stopped sync.Once

	sent        atomic.Int64
	delivered   atomic.Int64
	undecodable atomic.Int64
}

// NodeStats are the node's cumulative traffic counters. Sent counts every
// payload handed to the transport (loopback included); Delivered counts
// frames consumed by the process's Deliver loop; Undecodable counts
// inbound frames Run dropped because they were not one valid payload — a
// peer speaking another codec, or a corrupt or hostile one. Transport
// carries the underlying link counters (resends, reconnects, duplicates).
type NodeStats struct {
	Sent        int64
	Delivered   int64
	Undecodable int64
	Transport   cluster.Stats
}

// Stats returns a snapshot of the traffic counters. Safe to call from any
// goroutine, including while Run is in flight.
func (n *Node) Stats() NodeStats {
	st := NodeStats{Sent: n.sent.Load(), Delivered: n.delivered.Load(), Undecodable: n.undecodable.Load()}
	if n.tr != nil {
		st.Transport = n.tr.Stats()
	}
	return st
}

// Remote returns the node's local game-state backend (moves, wills, halt
// flag). Serving layers read it after Run to assemble a run result.
func (n *Node) Remote() *async.Remote { return n.remote }

// NewNode creates a node (not yet listening).
func NewNode(cfg NodeConfig) (*Node, error) {
	if int(cfg.Self) < 0 || int(cfg.Self) >= len(cfg.Addrs) {
		return nil, fmt.Errorf("wire: self %d out of range", cfg.Self)
	}
	if cfg.Proc == nil {
		return nil, fmt.Errorf("wire: nil process")
	}
	if cfg.Players == 0 {
		cfg.Players = len(cfg.Addrs)
	}
	n := &Node{
		cfg:  cfg,
		done: make(chan struct{}),
	}
	n.remote = async.NewRemote(cfg.Self, len(cfg.Addrs), cfg.Players, cfg.Seed, n.send)
	return n, nil
}

// Listen opens the node's transport on its endpoint, binding the
// endpoint's listener if it is not bound yet. Call before Run on all
// nodes so the mesh can form; Addr reports the endpoint's address.
func (n *Node) Listen() error {
	if n.tr != nil {
		return nil
	}
	ep := n.cfg.Endpoint
	if ep == nil {
		ep = cluster.NewEndpoint(cluster.EndpointConfig{ListenAddr: n.cfg.Addrs[n.cfg.Self]})
		n.ownEP = ep
	}
	tr, err := ep.Open(cluster.Config{
		Self:      int(n.cfg.Self),
		N:         len(n.cfg.Addrs),
		ClusterID: n.cfg.ClusterID,
		TraceID:   n.cfg.TraceID,
	})
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	n.tr = tr
	for p, addr := range n.cfg.Addrs {
		if p != int(n.cfg.Self) && addr != "" {
			tr.SetPeerAddr(p, addr)
		}
	}
	return nil
}

// SetAddrs fills the whole peer address table (empty entries skipped).
func (n *Node) SetAddrs(addrs []string) {
	if n.tr != nil {
		n.tr.SetAddrs(addrs)
	}
}

// DropConns severs every live transport connection (fault injection);
// links reconnect and replay. It returns the number closed.
func (n *Node) DropConns() int {
	if n.tr == nil {
		return 0
	}
	return n.tr.DropConns()
}

// NewLocalMesh builds a complete loopback mesh for the given processes:
// every node gets an endpoint of its own on an ephemeral 127.0.0.1 port
// (no port agreement needed) and is already listening when this returns,
// so Run may be called on all nodes concurrently. players follows NodeConfig.Players semantics;
// seed is the session seed (NodeConfig.Seed). Same handshake, framing
// and reconnect semantics as any cluster mesh, all failure domains in
// one process.
func NewLocalMesh(procs []async.Process, players int, seed int64) ([]*Node, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("wire: empty mesh")
	}
	nodes := make([]*Node, len(procs))
	cleanup := func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Stop()
			}
		}
	}
	addrs := make([]string, len(procs))
	for i, proc := range procs {
		node, err := NewNode(NodeConfig{
			Self: async.PID(i), Addrs: make([]string, len(procs)),
			Players: players, Proc: proc, Seed: seed,
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := node.Listen(); err != nil {
			cleanup()
			return nil, err
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	for _, node := range nodes {
		node.SetAddrs(addrs)
	}
	return nodes, nil
}

// Addr returns the address peers dial: the endpoint's ("" before
// Listen).
func (n *Node) Addr() string {
	if n.tr == nil {
		return ""
	}
	return n.tr.Addr()
}

// send transmits a payload to a peer through the transport's per-peer
// pending queue (the loopback stream for self). It never blocks, not even
// when the node's own inbox is full; writes to distinct peers never
// contend on a shared mutex, and a temporarily disconnected peer buffers
// rather than silently dropping.
func (n *Node) send(to async.PID, payload any) {
	b, err := EncodePayload(payload)
	if err != nil {
		return // unencodable payload: a bug the codec's round-trip tests catch
	}
	n.sent.Add(1)
	n.tr.Send(int(to), b)
}

// Run starts the process and pumps transport frames until the process
// halts, the timeout elapses, or Stop is called. It returns the decided
// move (if any). Mesh formation is asynchronous: links dial (and redial)
// in the background, so Run does not block on peers that bind late.
//
// Run does NOT tear the transport down when its own process halts: the
// resend buffers may still hold frames a slower peer needs (the
// asynchronous model's honest players relay until everyone is done), so
// the node keeps replaying — and discarding inbound frames — until the
// caller invokes Stop after every node of the play has returned.
func (n *Node) Run(timeout time.Duration) (move any, decided bool, err error) {
	if n.tr == nil {
		return nil, false, fmt.Errorf("wire: Run before Listen")
	}
	env := n.remote.Env()
	n.cfg.Proc.Start(env)
	deadline := time.After(timeout)
	seq := 0
	for !n.remote.Halted() {
		select {
		case cf := <-n.tr.Inbox():
			payload, derr := DecodePayload(cf.Payload)
			if derr != nil {
				n.undecodable.Add(1) // skip it rather than kill the play
				continue
			}
			// The sender identity is the transport's: the HELLO handshake
			// (and mTLS) authenticated the stream, and the payload carries
			// no sender a peer could forge.
			msg := async.Message{From: async.PID(cf.From), To: n.cfg.Self, Seq: seq, Payload: payload}
			seq++
			n.delivered.Add(1)
			n.cfg.Proc.Deliver(env, msg)
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

// Stop tears the node down: its transport, and its endpoint if it has
// one of its own. A shared endpoint keeps the transport's connections
// for the next play.
func (n *Node) Stop() {
	n.stopped.Do(func() {
		close(n.done)
		n.Wait()
	})
}

// Wait blocks until all transport goroutines finished (after Stop).
func (n *Node) Wait() {
	if n.tr != nil {
		n.tr.Close() // idempotent; waits for goroutines
	}
	if n.ownEP != nil {
		n.ownEP.Close()
	}
}

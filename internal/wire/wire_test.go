package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncmediator/internal/async"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/proto"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &proto.Envelope{Instance: "ba", Body: ba.MsgAux{Round: 3, V: 1}}
	b, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	env, ok := out.(*proto.Envelope)
	if !ok {
		t.Fatalf("payload type %T", out)
	}
	aux, ok := env.Body.(ba.MsgAux)
	if env.Instance != "ba" || !ok || aux != (ba.MsgAux{Round: 3, V: 1}) {
		t.Fatalf("round trip gave %+v", env)
	}
}

// TestDecodeRejectsGiantFrame: a length claiming more bytes than the
// input holds is refused before anything is allocated for it.
func TestDecodeRejectsGiantFrame(t *testing.T) {
	b := []byte{tagString, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3}
	if _, err := DecodePayload(b); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("got %v, want a length error", err)
	}
	if alloc := decodeAllocPerRun(b, 1000); alloc > 1024 {
		t.Fatalf("refusing a giant length allocated %d bytes", alloc)
	}
}

// freePorts grabs n distinct localhost ports by listening and closing.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func TestBAOverTCP(t *testing.T) {
	// Four real nodes on pre-agreed localhost ports run one Byzantine
	// agreement; all propose 1, so all must decide 1.
	const n = 4
	addrs := freePorts(t, n)
	nodes := make([]*Node, n)
	for i, h := range baProcs(t, n) {
		node, err := newOwnNode(NodeConfig{Self: async.PID(i), N: n, Proc: h, Seed: int64(i)}, addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		node.SetAddrs(addrs)
		nodes[i] = node
	}
	runMesh(t, nodes, 20*time.Second)
}

// TestLocalMeshBA forms an ephemeral-port mesh (no pre-agreed addresses)
// and runs Byzantine agreement across it, exercising NewLocalMesh end to
// end plus the node traffic counters.
func TestLocalMeshBA(t *testing.T) {
	const n = 4
	nodes, err := NewLocalMesh(baProcs(t, n), 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	runMesh(t, nodes, 20*time.Second)
	for i, nd := range nodes {
		if st := nd.Stats(); st.Sent == 0 || st.Delivered == 0 {
			t.Errorf("node %d: counters not advancing: %+v", i, st)
		}
	}
}

// TestUndecodableFrameCounted injects one garbage DATA frame into a live
// mesh ahead of the play: Run must count and skip it, and the play must
// still finish.
func TestUndecodableFrameCounted(t *testing.T) {
	const n = 4
	nodes, err := NewLocalMesh(baProcs(t, n), 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's transport carries the garbage to node 0 over the real link;
	// the play starts only once it sits in node 0's inbox, so Run reads it
	// first whatever the schedule.
	nodes[1].tr.Send(0, []byte{0xFF, 0xFF})
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].tr.Stats().Delivered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the garbage frame never reached node 0")
		}
		time.Sleep(time.Millisecond)
	}
	runMesh(t, nodes, 20*time.Second)
	for i, nd := range nodes {
		want := int64(0)
		if i == 0 {
			want = 1
		}
		if got := nd.Stats().Undecodable; got != want {
			t.Errorf("node %d: Undecodable = %d, want %d", i, got, want)
		}
	}
}

// baProcs builds n hosts running one binary agreement in which every
// party proposes 1; each decides the agreed bit and halts. The DONE it
// broadcasts on deciding still goes out: a halted node keeps sending.
func baProcs(t *testing.T, n int) []async.Process {
	t.Helper()
	const tf = 1
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		h := proto.NewHost()
		inst := ba.New(n, tf, ba.SharedCoin{Seed: 1}, func(ctx *proto.Ctx, v int) {
			ctx.Env().Decide(v)
			ctx.Env().Halt()
		})
		if err := h.Register("ba", inst); err != nil {
			t.Fatal(err)
		}
		h.OnStart(func(env *async.Env) { inst.Propose(h.Ctx(env, "ba"), 1) })
		procs[i] = h
	}
	return procs
}

// runMesh runs every node of a mesh to completion, stops them, and
// asserts each decided 1, the agreement every party proposed.
func runMesh(t *testing.T, nodes []*Node, timeout time.Duration) {
	t.Helper()
	moves := make([]any, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i := range nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			mv, ok, err := nodes[i].Run(timeout)
			if err == nil && !ok {
				err = fmt.Errorf("no decision")
			}
			moves[i], errs[i] = mv, err
		}()
	}
	wg.Wait()
	for _, nd := range nodes {
		nd.Stop()
	}
	for i := range nodes {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if moves[i] != 1 {
			t.Fatalf("node %d decided %v, want 1", i, moves[i])
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	h := proto.NewHost()
	if _, err := newOwnNode(NodeConfig{Self: 5, N: 2, Proc: h}, ""); err == nil {
		t.Fatal("out-of-range self should fail")
	}
	if _, err := newOwnNode(NodeConfig{Self: 0, N: 1, Proc: nil}, ""); err == nil {
		t.Fatal("nil proc should fail")
	}
	if _, err := NewNode(NodeConfig{Self: 0, N: 1, Proc: h}); err == nil {
		t.Fatal("nil endpoint should fail")
	}
	node, err := newOwnNode(NodeConfig{Self: 0, N: 1, Proc: h}, "")
	if err != nil {
		t.Fatal(err)
	}
	node.Stop()
}

// TestMeshSurvivesConnDrops runs Byzantine agreement over a mesh whose
// connections are severed repeatedly while the play is in flight: the
// cluster transport's reconnect-with-resend must deliver every frame
// exactly once, so all nodes still decide the proposed bit.
func TestMeshSurvivesConnDrops(t *testing.T) {
	const n = 4
	nodes, err := NewLocalMesh(baProcs(t, n), 0, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos: sever every live connection repeatedly until the play is
	// over — the transport must replay whatever the drops swallowed and
	// the play must still terminate. Links dial as soon as the mesh is
	// built, so the play is held back until one established connection
	// has been severed: however fast the agreement runs, it runs on a
	// mesh that has already had to heal.
	stop, firstDrop := make(chan struct{}), make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		var once sync.Once
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, nd := range nodes {
				if nd.tr.DropConns() > 0 {
					once.Do(func() { close(firstDrop) })
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		chaos.Wait()
	}()
	select {
	case <-firstDrop:
	case <-time.After(10 * time.Second):
		t.Fatal("no connection came up to sever")
	}

	runMesh(t, nodes, 30*time.Second)
	dropped := false
	for _, nd := range nodes {
		if nd.Stats().Transport.ConnsDropped > 0 {
			dropped = true
		}
	}
	if !dropped {
		t.Error("chaos loop severed no connections; the test exercised nothing")
	}
}

// drawProc records its first private random draw and halts.
type drawProc struct{ draw *int64 }

func (p drawProc) Start(env *async.Env) {
	*p.draw = env.Rand().Int64()
	env.Halt()
}

func (drawProc) Deliver(*async.Env, async.Message) {}

// TestNodeRandMatchesRuntime pins one seed derivation for every runtime:
// for the same session seed, mesh node i's first Env.Rand() draw equals
// the simulator's party i's.
func TestNodeRandMatchesRuntime(t *testing.T) {
	const n, seed = 5, 42
	simDraws := make([]int64, n)
	procs := make([]async.Process, n)
	for i := range procs {
		procs[i] = drawProc{&simDraws[i]}
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	nodes, err := NewLocalMesh(procs, 0, seed) // never started: only their Envs draw
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	for i, nd := range nodes {
		if got := nd.Remote().Env().Rand().Int64(); got != simDraws[i] {
			t.Errorf("node %d drew %d, simulator party %d drew %d", i, got, i, simDraws[i])
		}
	}
}

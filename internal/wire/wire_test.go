package wire

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"asyncmediator/internal/async"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/rbc"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	RegisterTypes()
	var buf bytes.Buffer
	in := frame{From: 1, To: 2, Payload: proto.Envelope{
		Instance: "rbc", Body: rbc.MsgEcho{V: []byte("hello")},
	}}
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.From != 1 || out.To != 2 {
		t.Fatalf("header mismatch: %+v", out)
	}
	env, ok := out.Payload.(proto.Envelope)
	if !ok {
		t.Fatalf("payload type %T", out.Payload)
	}
	echo, ok := env.Body.(rbc.MsgEcho)
	if !ok || string(echo.V) != "hello" {
		t.Fatalf("body %+v", env.Body)
	}
}

func TestDecodeRejectsGiantFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Decode(&buf); err == nil {
		t.Fatal("expected frame-size error")
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

func TestRBCOverTCP(t *testing.T) {
	// Four real nodes on localhost run Bracha reliable broadcast; all
	// must deliver the dealer's value.
	n, tf := 4, 1
	addrs := freePorts(t, n)

	type result struct {
		v   []byte
		err error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	nodes := make([]*Node, n)

	for i := 0; i < n; i++ {
		i := i
		h := proto.NewHost()
		delivered := make(chan []byte, 1)
		var inst *rbc.RBC
		cb := func(ctx *proto.Ctx, v []byte) {
			select {
			case delivered <- v:
			default:
			}
			ctx.Env().Decide(string(v))
			ctx.Env().Halt()
		}
		if i == 0 {
			inst = rbc.NewDealer(0, tf, []byte("networked"), cb)
		} else {
			inst = rbc.New(0, tf, cb)
		}
		if err := h.Register("rbc", inst); err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(NodeConfig{
			Self: async.PID(i), Addrs: addrs, Proc: h, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Listen(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			mv, ok, err := nodes[i].Run(20 * time.Second)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			if !ok {
				results[i] = result{err: fmt.Errorf("no decision")}
				return
			}
			results[i] = result{v: []byte(mv.(string))}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		nodes[i].Stop()
		nodes[i].Wait()
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
		if string(r.v) != "networked" {
			t.Fatalf("node %d delivered %q", i, r.v)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := NewNode(NodeConfig{Self: 5, Addrs: []string{"a", "b"}, Proc: nil}); err == nil {
		t.Fatal("out-of-range self should fail")
	}
	h := proto.NewHost()
	if _, err := NewNode(NodeConfig{Self: 0, Addrs: []string{"a"}, Proc: nil}); err == nil {
		t.Fatal("nil proc should fail")
	}
	node, err := NewNode(NodeConfig{Self: 0, Addrs: []string{"127.0.0.1:0"}, Proc: h})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := node.Run(time.Second); err == nil {
		t.Fatal("Run before Listen should fail")
	}
}

// TestMeshSurvivesConnDrops runs reliable broadcast over a mesh whose
// connections are severed repeatedly while the play is in flight: the
// cluster transport's reconnect-with-resend must deliver every gob frame
// exactly once, so all nodes still decide the dealer's value.
func TestMeshSurvivesConnDrops(t *testing.T) {
	const n, tf = 4, 1
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		h := proto.NewHost()
		cb := func(ctx *proto.Ctx, v []byte) {
			ctx.Env().Decide(string(v))
			ctx.Env().Halt()
		}
		var inst *rbc.RBC
		if i == 0 {
			inst = rbc.NewDealer(0, tf, []byte("stormy"), cb)
		} else {
			inst = rbc.New(0, tf, cb)
		}
		if err := h.Register("rbc", inst); err != nil {
			t.Fatal(err)
		}
		procs[i] = h
	}
	nodes, err := NewLocalMesh(procs, 0, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos: sever every live connection repeatedly until the play is
	// over — the transport must replay whatever the drops swallowed and
	// the play must still terminate. Links dial as soon as the mesh is
	// built, so the play is held back until one established connection
	// has been severed: however fast the broadcast runs, it runs on a
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
				if nd.DropConns() > 0 {
					once.Do(func() { close(firstDrop) })
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	select {
	case <-firstDrop:
	case <-time.After(10 * time.Second):
		t.Fatal("no connection came up to sever")
	}

	moves := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			mv, ok, err := nodes[i].Run(30 * time.Second)
			if err == nil && !ok {
				err = fmt.Errorf("no decision")
			}
			moves[i], errs[i] = mv, err
		}()
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
	dropped := false
	for i := 0; i < n; i++ {
		if st := nodes[i].Stats(); st.Transport.ConnsDropped > 0 {
			dropped = true
		}
		nodes[i].Stop()
		nodes[i].Wait()
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if moves[i] != "stormy" {
			t.Fatalf("node %d delivered %v", i, moves[i])
		}
	}
	if !dropped {
		t.Error("chaos loop severed no connections; the test exercised nothing")
	}
}

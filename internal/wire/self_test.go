package wire

import (
	"errors"
	"sync"
	"testing"
	"time"

	"asyncmediator/internal/async"
)

// selfSender sends itself msgs payloads from Start, before it reads
// anything, and halts once it has been delivered all of them. It records
// the self-deliveries in arrival order, counts the messages from peers,
// and checks each message's To and Seq as it goes.
type selfSender struct {
	msgs   int
	got    []int
	others int
	seen   int // messages delivered so far: the next Seq
	bad    []async.Message
}

func (p *selfSender) Start(env *async.Env) {
	for m := 0; m < p.msgs; m++ {
		env.Send(env.Self(), m)
	}
}

func (p *selfSender) Deliver(env *async.Env, msg async.Message) {
	if msg.To != env.Self() || msg.Seq != p.seen {
		p.bad = append(p.bad, msg)
	}
	p.seen++
	if msg.From != env.Self() {
		p.others++
		return
	}
	p.got = append(p.got, msg.Payload.(int))
	if len(p.got) == p.msgs {
		env.Halt()
	}
}

// check asserts the process was delivered every self-addressed payload,
// in send order, with well-formed message headers.
func (p *selfSender) check(t *testing.T) {
	t.Helper()
	if len(p.bad) > 0 {
		t.Fatalf("%d messages with a wrong To or Seq, first %+v", len(p.bad), p.bad[0])
	}
	if len(p.got) != p.msgs {
		t.Fatalf("delivered %d of %d self-sends", len(p.got), p.msgs)
	}
	for i, m := range p.got {
		if m != i {
			t.Fatalf("self-delivery %d carried payload %d: not in send order", i, m)
		}
	}
}

// TestSelfSendsNeverReachTransport: a process sends itself far more
// payloads than a transport inbox holds before it reads anything, as a
// protocol node does when it broadcasts. They are delivered in send
// order and never touch the transport.
func TestSelfSendsNeverReachTransport(t *testing.T) {
	const msgs = 10000
	proc := &selfSender{msgs: msgs}
	nodes := openMesh(t, shared(t, 1), []async.Process{proc}, 1)
	if _, _, err := nodes[0].Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	proc.check(t)
	st := nodes[0].Stats()
	if st.Sent != msgs || st.Delivered != msgs {
		t.Errorf("node counted Sent %d, Delivered %d; want %d each", st.Sent, st.Delivered, msgs)
	}
	if st.Transport.Sent != 0 || st.Transport.FramesOut != 0 {
		t.Errorf("self-sends reached the transport: Sent %d, FramesOut %d", st.Transport.Sent, st.Transport.FramesOut)
	}
}

// TestSelfSendsUnderInboxFlood: the same self-sends, while a peer keeps
// the node's transport inbox full. Run serves both, so the process still
// gets every self-delivery in order and reads peer frames between them.
func TestSelfSendsUnderInboxFlood(t *testing.T) {
	const msgs = 10000
	proc := &selfSender{msgs: msgs}
	nodes := openMesh(t, shared(t, 2), []async.Process{proc, &selfSender{}}, 2)
	frame, err := EncodePayload("flood")
	if err != nil {
		t.Fatal(err)
	}
	flooder := nodes[1].tr
	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Keep a few hundred frames queued: enough to refill the inbox
			// as fast as Run reads it, without growing without bound.
			if flooder.Stats().QueueLen < 512 {
				flooder.Send(0, append([]byte(nil), frame...))
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	defer func() {
		close(stop)
		flood.Wait()
	}()
	inbox := nodes[0].tr.Inbox()
	deadline := time.Now().Add(10 * time.Second)
	for len(inbox) < cap(inbox) {
		if time.Now().After(deadline) {
			t.Fatalf("the flood never filled the inbox (%d of %d)", len(inbox), cap(inbox))
		}
		time.Sleep(time.Millisecond)
	}

	if _, _, err := nodes[0].Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	proc.check(t)
	if proc.others == 0 {
		t.Error("Run delivered no peer frame while self-deliveries were pending")
	}
	if st := nodes[0].Stats().Transport; st.Sent != 0 {
		t.Errorf("self-sends reached the transport: Sent %d", st.Sent)
	}
}

// selfLoop answers every self-delivery with another self-send, so a
// self-delivery is always pending and the process never halts.
type selfLoop struct{}

func (selfLoop) Start(env *async.Env) { env.Send(env.Self(), 0) }

func (selfLoop) Deliver(env *async.Env, msg async.Message) {
	env.Send(env.Self(), msg.Payload.(int)+1)
}

// TestSelfSendLoopHonoursDeadline: a process that keeps sending to
// itself cannot hang a play. Run returns ErrTimeout at its deadline, and
// a Stop during Run ends it.
func TestSelfSendLoopHonoursDeadline(t *testing.T) {
	nodes := openMesh(t, shared(t, 2), []async.Process{selfLoop{}, selfLoop{}}, 3)

	start := time.Now()
	if _, _, err := nodes[0].Run(200 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run = %v, want ErrTimeout", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("Run took %v past a 200ms deadline", took)
	}
	if nodes[0].Stats().Delivered == 0 {
		t.Error("the loop delivered nothing: the test exercised nothing")
	}

	runErr := make(chan error, 1)
	go func() {
		_, _, err := nodes[1].Run(time.Hour)
		runErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].Stats().Delivered < 1000 {
		if time.Now().After(deadline) {
			t.Fatal("the self-send loop never got going")
		}
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() {
		nodes[0].Stop()
		nodes[1].Stop()
		close(stopped)
	}()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after Stop = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run kept looping after Stop")
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
}

package async

import (
	"reflect"
	"sync"
	"testing"
)

// TestRemoteConcurrentDecide hammers one Remote from many goroutines —
// the situation a wire transport creates when connection readers race —
// and asserts the game-layer invariants hold: exactly the first Decide
// sticks, wills are last-writer-wins, and Halted is monotonic.
func TestRemoteConcurrentDecide(t *testing.T) {
	const goroutines = 32
	var sendMu sync.Mutex
	var sent []any
	r := NewRemote(0, 4, 4, 1, func(to PID, payload any) {
		sendMu.Lock()
		sent = append(sent, payload)
		sendMu.Unlock()
	})
	env := r.Env()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			env.Decide(g)
			env.SetWill(g + 100)
			env.Send(PID(g%4), g)
		}()
	}
	wg.Wait()

	mv, ok := r.Move()
	if !ok {
		t.Fatal("no move recorded")
	}
	first := mv.(int)
	if first < 0 || first >= goroutines {
		t.Fatalf("move %v not among submitted", mv)
	}
	// The move must not change once set.
	env.Decide(first + 1000)
	if mv2, _ := r.Move(); mv2 != mv {
		t.Fatalf("move changed from %v to %v", mv, mv2)
	}
	w, ok := r.Will()
	if !ok {
		t.Fatal("no will recorded")
	}
	if wi := w.(int); wi < 100 || wi >= 100+goroutines {
		t.Fatalf("will %v not among submitted", w)
	}
	sendMu.Lock()
	gotSends := len(sent)
	sendMu.Unlock()
	if gotSends != goroutines {
		t.Fatalf("transport saw %d sends, want %d", gotSends, goroutines)
	}
	if r.Halted() {
		t.Fatal("halted without Halt")
	}
}

// TestRemoteConcurrentDeliveryDrivesProcess runs a Process on a Remote
// while concurrent goroutines deliver messages and poll lifecycle state,
// mirroring a transport's reader goroutines racing a status poller. Run
// with -race, this is the regression net for the mesh's thread model.
func TestRemoteConcurrentDeliveryDrivesProcess(t *testing.T) {
	const senders, perSender = 8, 50
	r := NewRemote(0, senders+1, senders+1, 7, func(to PID, payload any) {})
	env := r.Env()

	// A counting process: halts after seeing every expected message.
	// Deliver is serialized by the counter's own mutex — the Remote's
	// contract is that IT is safe under concurrency; the process guards
	// its own state, as wire.Node does by pumping from one goroutine.
	var mu sync.Mutex
	seen := 0
	deliver := func(msg Message) {
		mu.Lock()
		seen++
		done := seen == senders*perSender
		mu.Unlock()
		if done {
			env.Decide("all")
			env.Halt()
		}
	}

	var pollWG sync.WaitGroup
	stop := make(chan struct{})
	pollWG.Add(1)
	go func() { // status poller racing the deliverers
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Halted()
				_, _ = r.Move()
				_, _ = r.Will()
			}
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				deliver(Message{From: PID(s + 1), To: 0, Seq: i, Payload: i})
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	if !r.Halted() {
		t.Fatal("process did not halt")
	}
	if mv, ok := r.Move(); !ok || mv != "all" {
		t.Fatalf("move %v, %v", mv, ok)
	}
}

// TestRemoteEnvSurface checks the Env bookkeeping a compiled player
// observes on a Remote backend.
func TestRemoteEnvSurface(t *testing.T) {
	r := NewRemote(2, 5, 4, 3, nil)
	env := r.Env()
	if env.Self() != 2 || env.Players() != 4 {
		t.Fatalf("surface: self=%d players=%d", env.Self(), env.Players())
	}
	if env.Rand() == nil {
		t.Fatal("nil rng")
	}
	env.Send(1, "dropped") // nil send function must not panic
	env.Halt()
	if !r.Halted() {
		t.Fatal("halt not recorded")
	}
}

// drawProc records the first values its party draws from Env.Rand at
// Start, then halts.
type drawProc struct{ got []int64 }

func (d *drawProc) Start(env *Env) {
	for i := 0; i < 4; i++ {
		d.got = append(d.got, env.Rand().Int64())
	}
	env.Halt()
}

func (d *drawProc) Deliver(*Env, Message) {}

// TestRemoteDrawsLikeRuntime: a party behind a Remote draws exactly what
// the same party draws in the sequential runtime with the same seed, for
// every party, so a wire play's randomness is the simulated play's
// (wire.NodeConfig.Seed).
func TestRemoteDrawsLikeRuntime(t *testing.T) {
	const n = 5
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &drawProc{}
		}
		rt, err := New(Config{Procs: procs, Scheduler: &RoundRobinScheduler{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		for i := range procs {
			remote := &drawProc{}
			remote.Start(NewRemote(PID(i), n, n, seed, nil).Env())
			if !reflect.DeepEqual(remote.got, procs[i].(*drawProc).got) {
				t.Fatalf("seed %d party %d: Remote drew %v, Runtime %v", seed, i, remote.got, procs[i].(*drawProc).got)
			}
		}
	}
}

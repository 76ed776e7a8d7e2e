package mpc

import (
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/ba"
	"asyncmediator/internal/circuit"
	"asyncmediator/internal/field"
	"asyncmediator/internal/proto"
)

// runMPC executes the circuit among n parties with threshold tf. inputs[p]
// is party p's input vector; byz replaces parties with custom processes.
// Returns outputs[p] = map from output index to value (nil if no outputs
// or byzantine), and the run stats.
func runMPC(t *testing.T, n, tf int, circ *circuit.Circuit, inputs [][]field.Element,
	byz map[int]async.Process, sched async.Scheduler, seed int64) ([]map[int]field.Element, *async.Result) {
	t.Helper()
	outs, procs := mpcProcs(t, n, tf, circ, inputs, seed)
	for i, p := range byz {
		procs[i], outs[i] = p, nil
	}
	if sched == nil {
		sched = &async.RoundRobinScheduler{}
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: sched, Seed: seed, MaxSteps: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return outs, res
}

// mpcProcs builds n honest parties, each an engine registered as "mpc" on
// a host, and the outputs slice their OnOutput callbacks fill.
func mpcProcs(t *testing.T, n, tf int, circ *circuit.Circuit, inputs [][]field.Element, seed int64) ([]map[int]field.Element, []async.Process) {
	t.Helper()
	outs := make([]map[int]field.Element, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		i := i
		h := proto.NewHost()
		eng, err := New(Config{
			N: n, T: tf, Circuit: circ, Coin: ba.SharedCoin{Seed: seed},
			Inputs: inputs[i],
			OnOutput: func(ctx *proto.Ctx, vals map[int]field.Element) {
				outs[i] = vals
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Register("mpc", eng); err != nil {
			t.Fatal(err)
		}
		procs[i] = h
	}
	return outs, procs
}

// sumCircuit: output to everyone the sum of all parties' single inputs.
func sumCircuit(n int) *circuit.Circuit {
	b := circuit.NewBuilder(n)
	var acc circuit.Wire
	for p := 0; p < n; p++ {
		in := b.Input(p)
		if p == 0 {
			acc = in
		} else {
			acc = b.Add(acc, in)
		}
	}
	for p := 0; p < n; p++ {
		b.Output(p, acc)
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func singleInputs(n int, base uint64) [][]field.Element {
	in := make([][]field.Element, n)
	for i := range in {
		in[i] = []field.Element{field.New(base + uint64(i))}
	}
	return in
}

func TestLinearSum(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{5, 1}, {9, 2}} {
		n := cfg.n
		outs, _ := runMPC(t, n, cfg.t, sumCircuit(n), singleInputs(n, 10), nil, nil, 1)
		want := field.Element(0)
		for i := 0; i < n; i++ {
			want = want.Add(field.New(10 + uint64(i)))
		}
		for p := 0; p < n; p++ {
			if outs[p] == nil {
				t.Fatalf("n=%d: party %d got no outputs", n, p)
			}
			got, ok := outs[p][p] // output index p goes to player p
			if !ok || got != want {
				t.Fatalf("n=%d: party %d got %v, want %v", n, p, outs[p], want)
			}
		}
	}
}

func TestLinearSumRandomSchedules(t *testing.T) {
	n, tf := 5, 1
	for seed := int64(0); seed < 6; seed++ {
		outs, _ := runMPC(t, n, tf, sumCircuit(n), singleInputs(n, 1), nil, async.NewRandomScheduler(seed), seed)
		want := field.Element(1 + 2 + 3 + 4 + 5)
		for p := 0; p < n; p++ {
			if outs[p] == nil || outs[p][p] != want {
				t.Fatalf("seed %d: party %d got %v, want %v", seed, p, outs[p], want)
			}
		}
	}
}

// mulCircuit: output x0 * x1 (secret × secret) to everyone.
func mulCircuit(n int) *circuit.Circuit {
	b := circuit.NewBuilder(n)
	x := b.Input(0)
	y := b.Input(1)
	z := b.Mul(x, y)
	for p := 0; p < n; p++ {
		b.Output(p, z)
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func TestSecretMultiplication(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{5, 1}, {9, 2}, {4, 1}} {
		n := cfg.n
		inputs := make([][]field.Element, n)
		inputs[0] = []field.Element{6}
		inputs[1] = []field.Element{7}
		for i := 2; i < n; i++ {
			inputs[i] = nil
		}
		outs, _ := runMPC(t, n, cfg.t, mulCircuit(n), inputs, nil, nil, 2)
		for p := 0; p < n; p++ {
			if outs[p] == nil || outs[p][p] != 42 {
				t.Fatalf("n=%d t=%d: party %d got %v, want 42", n, cfg.t, p, outs[p])
			}
		}
	}
}

func TestMulChain(t *testing.T) {
	// ((x0*x1)*x2) exercises sequential degree reductions.
	n, tf := 5, 1
	b := circuit.NewBuilder(n)
	w := b.Mul(b.Mul(b.Input(0), b.Input(1)), b.Input(2))
	b.Output(0, w)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]field.Element{{2}, {3}, {4}, nil, nil}
	outs, _ := runMPC(t, n, tf, circ, inputs, nil, nil, 3)
	if outs[0] == nil || outs[0][0] != 24 {
		t.Fatalf("got %v, want 24", outs[0])
	}
}

func TestPublicTimesSecretIsLocal(t *testing.T) {
	// Mul(const, input) must not spawn any resharing traffic: compare
	// message counts against a version with secret*secret.
	n, tf := 5, 1
	bl := circuit.NewBuilder(n)
	w := bl.Mul(bl.Const(3), bl.Input(0))
	bl.Output(0, w)
	cLocal, _ := bl.Build()
	inputs := [][]field.Element{{5}, nil, nil, nil, nil}
	outs, resLocal := runMPC(t, n, tf, cLocal, inputs, nil, nil, 4)
	if outs[0] == nil || outs[0][0] != 15 {
		t.Fatalf("got %v, want 15", outs[0])
	}

	inputs2 := [][]field.Element{{5}, {3}, nil, nil, nil}
	outs2, resProto := runMPC(t, n, tf, mulCircuit(n), inputs2, nil, nil, 4)
	if outs2[0] == nil || outs2[0][0] != 15 {
		t.Fatalf("got %v, want 15", outs2[0])
	}
	if resLocal.Stats.MessagesSent >= resProto.Stats.MessagesSent {
		t.Fatalf("public×secret (%d msgs) should be cheaper than secret×secret (%d msgs)",
			resLocal.Stats.MessagesSent, resProto.Stats.MessagesSent)
	}
}

// randBitCircuit: one random bit output to everyone.
func randBitCircuit(n int) *circuit.Circuit {
	b := circuit.NewBuilder(n)
	r := b.RandBit()
	for p := 0; p < n; p++ {
		b.Output(p, r)
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func TestRandBitErrorlessRegime(t *testing.T) {
	// n=5, t=1: errorless path (n > 4t).
	n, tf := 5, 1
	zeros, ones := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		outs, _ := runMPC(t, n, tf, randBitCircuit(n), make([][]field.Element, n), nil, nil, seed)
		first := outs[0][0]
		if first != 0 && first != 1 {
			t.Fatalf("seed %d: bit = %v", seed, first)
		}
		for p := 0; p < n; p++ {
			if outs[p] == nil || outs[p][p] != first {
				t.Fatalf("seed %d: parties disagree on the bit", seed)
			}
		}
		if first == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatalf("degenerate bit distribution: %d zeros, %d ones", zeros, ones)
	}
}

func TestRandBitEpsilonRegime(t *testing.T) {
	// n=4, t=1: 3t < n <= 4t forces the reshare-then-open path.
	n, tf := 4, 1
	seen := map[field.Element]int{}
	for seed := int64(0); seed < 10; seed++ {
		outs, _ := runMPC(t, n, tf, randBitCircuit(n), make([][]field.Element, n), nil, nil, seed+100)
		first := outs[0][0]
		if first != 0 && first != 1 {
			t.Fatalf("seed %d: bit = %v", seed, first)
		}
		for p := 0; p < n; p++ {
			if outs[p] == nil || outs[p][p] != first {
				t.Fatalf("seed %d: parties disagree", seed)
			}
		}
		seen[first]++
	}
	if len(seen) < 2 {
		t.Logf("single-value bit distribution over 10 seeds (possible but unlikely): %v", seen)
	}
}

// selectCircuit: mediator-style uniform selection among 2 profiles.
func selectCircuit(n int, rows [][]field.Element) *circuit.Circuit {
	b := circuit.NewBuilder(n)
	outs := b.SelectUniform(rows)
	for p := 0; p < n; p++ {
		b.Output(p, outs[p])
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func TestSelectUniformTwoRows(t *testing.T) {
	// The core mediator workload: pick one of two action profiles.
	n, tf := 5, 1
	rows := [][]field.Element{
		{10, 11, 12, 13, 14},
		{20, 21, 22, 23, 24},
	}
	counts := map[field.Element]int{}
	for seed := int64(0); seed < 10; seed++ {
		outs, _ := runMPC(t, n, tf, selectCircuit(n, rows), make([][]field.Element, n), nil, nil, seed+500)
		base := outs[0][0]
		if base != 10 && base != 20 {
			t.Fatalf("seed %d: player 0 got %v", seed, base)
		}
		for p := 0; p < n; p++ {
			want := base.Add(field.Element(p))
			if outs[p] == nil || outs[p][p] != want {
				t.Fatalf("seed %d: player %d got %v, want %v (consistent row)", seed, p, outs[p], want)
			}
		}
		counts[base]++
	}
	if len(counts) < 2 {
		t.Logf("one-sided selection over 10 seeds (unlikely): %v", counts)
	}
}

func TestSelectUniformFourRows(t *testing.T) {
	// Two bits, one secret×secret mux level.
	n, tf := 5, 1
	rows := [][]field.Element{
		{1, 1, 1, 1, 1},
		{2, 2, 2, 2, 2},
		{3, 3, 3, 3, 3},
		{4, 4, 4, 4, 4},
	}
	seen := map[field.Element]bool{}
	for seed := int64(0); seed < 12; seed++ {
		outs, _ := runMPC(t, n, tf, selectCircuit(n, rows), make([][]field.Element, n), nil, nil, seed+900)
		v := outs[0][0]
		if v.Uint64() < 1 || v.Uint64() > 4 {
			t.Fatalf("seed %d: got %v", seed, v)
		}
		for p := 1; p < n; p++ {
			if outs[p][p] != v {
				t.Fatalf("seed %d: rows inconsistent", seed)
			}
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("selection never varied: %v", seen)
	}
}

type silent struct{}

func (silent) Start(env *async.Env)                    {}
func (silent) Deliver(env *async.Env, m async.Message) {}

func TestCrashedPartiesDefaultInputs(t *testing.T) {
	// Crashed parties are excluded from the core; their inputs become the
	// default (0), so the sum omits them.
	n, tf := 5, 1
	byz := map[int]async.Process{3: silent{}}
	outs, _ := runMPC(t, n, tf, sumCircuit(n), singleInputs(n, 10), byz, nil, 7)
	want := field.Element(10 + 11 + 12 + 14) // party 3 (input 13) excluded
	for p := 0; p < n; p++ {
		if p == 3 {
			continue
		}
		if outs[p] == nil || outs[p][p] != want {
			t.Fatalf("party %d got %v, want %v", p, outs[p], want)
		}
	}
}

func TestCrashBelowThresholdRandBit(t *testing.T) {
	n, tf := 5, 1
	byz := map[int]async.Process{4: silent{}}
	outs, _ := runMPC(t, n, tf, randBitCircuit(n), make([][]field.Element, n), byz, nil, 8)
	first := outs[0][0]
	if first != 0 && first != 1 {
		t.Fatalf("bit = %v", first)
	}
	for p := 0; p < 4; p++ {
		if outs[p] == nil || outs[p][p] != first {
			t.Fatal("disagreement under crash")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil circuit should fail")
	}
	c := sumCircuit(4)
	if _, err := New(Config{N: 4, T: 1, Circuit: c}); err != nil {
		t.Errorf("n=4 t=1 should be accepted: %v", err)
	}
	if _, err := New(Config{N: 3, T: 1, Circuit: c}); err == nil {
		t.Error("n=3 t=1 violates n > 3t")
	}
	if _, err := New(Config{N: -1, T: 0, Circuit: c}); err == nil {
		t.Error("negative n should fail")
	}
}

func TestMessageScalingWithGates(t *testing.T) {
	// O(nNc): message count grows with circuit size.
	n, tf := 5, 1
	mk := func(adds int) *circuit.Circuit {
		b := circuit.NewBuilder(n)
		w := b.Input(0)
		for i := 0; i < adds; i++ {
			w = b.AddConst(w, 1)
		}
		b.Output(0, w)
		c, _ := b.Build()
		return c
	}
	inputs := [][]field.Element{{1}, nil, nil, nil, nil}
	_, small := runMPC(t, n, tf, mk(1), inputs, nil, nil, 9)
	_, large := runMPC(t, n, tf, mulManyCircuit(n, 3), [][]field.Element{{1}, {2}, nil, nil, nil}, nil, nil, 9)
	if small.Stats.MessagesSent >= large.Stats.MessagesSent {
		t.Fatalf("expected more messages for mul-heavy circuit: %d vs %d",
			small.Stats.MessagesSent, large.Stats.MessagesSent)
	}
}

func mulManyCircuit(n, muls int) *circuit.Circuit {
	b := circuit.NewBuilder(n)
	x := b.Input(0)
	y := b.Input(1)
	w := x
	for i := 0; i < muls; i++ {
		w = b.Mul(w, y)
	}
	b.Output(0, w)
	c, _ := b.Build()
	return c
}

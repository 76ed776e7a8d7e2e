package avss

import (
	"math/rand"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/proto"
	"asyncmediator/internal/shamir"
)

// runAVSS executes one sharing among n parties with dealer 0 (unless a byz
// process replaces it) and returns each party's share (nil entry if the
// party is byzantine or did not complete).
func runAVSS(t *testing.T, n, tf int, secret field.Element,
	byz map[int]async.Process, sched async.Scheduler, seed int64) []*field.Element {
	t.Helper()
	shares, _ := runAVSSWrapped(t, n, tf, secret, byz, sched, seed, nil)
	return shares
}

// runAVSSWrapped is runAVSS with each honest party's instance registered
// as wrap(instance), when wrap is not nil; it also returns the number of
// messages sent.
func runAVSSWrapped(t *testing.T, n, tf int, secret field.Element,
	byz map[int]async.Process, sched async.Scheduler, seed int64, wrap func(*AVSS) proto.Module) ([]*field.Element, int) {
	t.Helper()
	shares := make([]*field.Element, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		if p, ok := byz[i]; ok {
			procs[i] = p
			continue
		}
		i := i
		h := proto.NewHost()
		var inst *AVSS
		cb := func(ctx *proto.Ctx, s field.Element) { sv := s; shares[i] = &sv }
		if i == 0 {
			inst = NewDealer(0, n, tf, tf, secret, cb)
		} else {
			inst = New(0, n, tf, tf, cb)
		}
		var m proto.Module = inst
		if wrap != nil {
			m = wrap(inst)
		}
		if err := h.Register("avss", m); err != nil {
			t.Fatal(err)
		}
		procs[i] = h
	}
	if sched == nil {
		sched = &async.RoundRobinScheduler{}
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: sched, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return shares, res.Stats.MessagesSent
}

// reconstructFrom robustly reconstructs from collected shares.
func reconstructFrom(t *testing.T, shares []*field.Element, tf int) field.Element {
	t.Helper()
	var ss []shamir.Share
	for i, s := range shares {
		if s != nil {
			ss = append(ss, shamir.Share{X: shamir.XOf(i), Y: *s})
		}
	}
	v, err := shamir.RobustReconstruct(ss, tf, tf)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHonestDealing(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{5, 1}, {9, 2}, {13, 3}} {
		secret := field.Element(777)
		shares := runAVSS(t, cfg.n, cfg.t, secret, nil, nil, 1)
		for i, s := range shares {
			if s == nil {
				t.Fatalf("n=%d: party %d did not complete", cfg.n, i)
			}
		}
		if got := reconstructFrom(t, shares, cfg.t); got != secret {
			t.Fatalf("n=%d: reconstructed %v, want %v", cfg.n, got, secret)
		}
	}
}

func TestHonestDealingRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		secret := field.Element(uint64(seed) + 10)
		shares := runAVSS(t, 5, 1, secret, nil, async.NewRandomScheduler(seed), seed)
		for i, s := range shares {
			if s == nil {
				t.Fatalf("seed %d: party %d did not complete", seed, i)
			}
		}
		if got := reconstructFrom(t, shares, 1); got != secret {
			t.Fatalf("seed %d: wrong secret", seed)
		}
	}
}

func TestSharesLieOnDegreeTPoly(t *testing.T) {
	n, tf := 9, 2
	shares := runAVSS(t, n, tf, 42, nil, nil, 2)
	pts := make([]poly.Point, 0, n)
	for i, s := range shares {
		pts = append(pts, poly.Point{X: shamir.XOf(i), Y: *s})
	}
	p, err := poly.Interpolate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() > tf {
		t.Fatalf("share polynomial degree %d > t=%d", p.Degree(), tf)
	}
	if p.Constant() != 42 {
		t.Fatalf("constant %v, want 42", p.Constant())
	}
}

type silent struct{}

func (silent) Start(env *async.Env)                    {}
func (silent) Deliver(env *async.Env, m async.Message) {}

func TestCrashedReceivers(t *testing.T) {
	n, tf := 9, 2
	byz := map[int]async.Process{3: silent{}, 7: silent{}}
	shares := runAVSS(t, n, tf, 99, byz, nil, 3)
	for i, s := range shares {
		if _, isByz := byz[i]; isByz {
			continue
		}
		if s == nil {
			t.Fatalf("party %d did not complete", i)
		}
	}
	if got := reconstructFrom(t, shares, tf); got != 99 {
		t.Fatalf("reconstructed %v, want 99", got)
	}
}

func TestCrashedDealerNobodyCompletes(t *testing.T) {
	n, tf := 5, 1
	byz := map[int]async.Process{0: silent{}}
	shares := runAVSS(t, n, tf, 0, byz, nil, 4)
	for i := 1; i < n; i++ {
		if shares[i] != nil {
			t.Fatalf("party %d completed under a crashed dealer", i)
		}
	}
}

// withheldDealer sends valid rows to all but `hide` parties; hidden
// parties must recover via points once READYs flow.
type withheldDealer struct {
	n, t   int
	secret field.Element
	hide   map[int]bool
}

func (d *withheldDealer) Start(env *async.Env) {
	f := poly.NewBivariate(env.Rand(), d.t, d.secret)
	for j := 0; j < d.n; j++ {
		if d.hide[j] {
			continue
		}
		row := f.Row(field.Element(j + 1))
		coeffs := make([]field.Element, len(row))
		copy(coeffs, row)
		env.Send(async.PID(j), &proto.Envelope{Instance: "avss", Body: MsgRow{Coeffs: coeffs}})
	}
}
func (d *withheldDealer) Deliver(env *async.Env, m async.Message) {}

func TestRowRecoveryForHiddenParties(t *testing.T) {
	// Dealer withholds the row from party 4; with n=9 > 4t, party 4 must
	// still complete by recovering its row from others' points.
	n, tf := 9, 2
	secret := field.Element(1234)
	byz := map[int]async.Process{
		0: &withheldDealer{n: n, t: tf, secret: secret, hide: map[int]bool{4: true}},
	}
	shares := runAVSS(t, n, tf, 0, byz, nil, 5)
	if shares[4] == nil {
		t.Fatal("hidden party did not recover")
	}
	// Dealer (byz process) has no share; reconstruct from others.
	if got := reconstructFrom(t, shares, tf); got != secret {
		t.Fatalf("reconstructed %v, want %v", got, secret)
	}
}

func TestSecrecyOfTShares(t *testing.T) {
	// The adversary's view (t shares) is consistent with every candidate
	// secret: verify as in the shamir secrecy test.
	n, tf := 9, 2
	shares := runAVSS(t, n, tf, 4242, nil, nil, 6)
	view := []shamir.Share{
		{X: shamir.XOf(1), Y: *shares[1]},
		{X: shamir.XOf(2), Y: *shares[2]},
	}
	for _, candidate := range []field.Element{0, 1, 4242, 99} {
		pts := append([]shamir.Share{{X: 0, Y: candidate}}, view...)
		if _, err := shamir.Reconstruct(pts, tf); err != nil {
			t.Fatalf("view inconsistent with candidate %v: %v", candidate, err)
		}
	}
}

func TestOpenPrivate(t *testing.T) {
	// Share with shamir directly, then open towards party 2 with two
	// corrupted shares.
	n, tf := 9, 2
	rng := rand.New(rand.NewSource(7))
	secret := field.Element(31337)
	sh, err := shamir.Split(rng, secret, n, tf)
	if err != nil {
		t.Fatal(err)
	}
	var got *field.Element
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		i := i
		h := proto.NewHost()
		o := NewOpen(n, tf, tf, 2, func(ctx *proto.Ctx, v field.Element) { vv := v; got = &vv })
		if err := h.Register("open", o); err != nil {
			t.Fatal(err)
		}
		share := sh[i].Y
		if i == 0 || i == 5 {
			share = share.Add(7) // corrupted
		}
		h.OnStart(func(env *async.Env) {
			o.Input(h.Ctx(env, "open"), share)
		})
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != secret {
		t.Fatalf("opened %v, want %v", got, secret)
	}
}

func TestOpenPublic(t *testing.T) {
	n, tf := 5, 1
	rng := rand.New(rand.NewSource(9))
	secret := field.Element(5150)
	sh, err := shamir.Split(rng, secret, n, tf)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*field.Element, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		i := i
		h := proto.NewHost()
		o := NewPublicOpen(n, tf, tf, func(ctx *proto.Ctx, v field.Element) { vv := v; got[i] = &vv })
		if err := h.Register("open", o); err != nil {
			t.Fatal(err)
		}
		share := sh[i].Y
		h.OnStart(func(env *async.Env) {
			o.Input(h.Ctx(env, "open"), share)
		})
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: async.NewRandomScheduler(10), Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g == nil || *g != secret {
			t.Fatalf("party %d opened %v, want %v", i, g, secret)
		}
	}
}

func TestOpenDegree2t(t *testing.T) {
	// Opening an unreduced product sharing (degree 2t) needs 3t+1 agreeing
	// points; with n=9, t=2 that is satisfiable.
	n, tf := 9, 2
	rng := rand.New(rand.NewSource(11))
	a, _ := shamir.Split(rng, 6, n, tf)
	b, _ := shamir.Split(rng, 7, n, tf)
	got := make([]*field.Element, n)
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		i := i
		h := proto.NewHost()
		o := NewPublicOpen(n, 2*tf, tf, func(ctx *proto.Ctx, v field.Element) { vv := v; got[i] = &vv })
		if err := h.Register("open", o); err != nil {
			t.Fatal(err)
		}
		share := a[i].Y.Mul(b[i].Y)
		h.OnStart(func(env *async.Env) {
			o.Input(h.Ctx(env, "open"), share)
		})
		procs[i] = h
	}
	rt, err := async.New(async.Config{Procs: procs, Scheduler: &async.RoundRobinScheduler{}, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g == nil || *g != 42 {
			t.Fatalf("party %d opened %v, want 42", i, g)
		}
	}
}

// inconsistentDealer sends each party a row from a DIFFERENT bivariate
// polynomial (maximal equivocation).
type inconsistentDealer struct {
	n, t int
}

func (d *inconsistentDealer) Start(env *async.Env) {
	for j := 0; j < d.n; j++ {
		f := poly.NewBivariate(env.Rand(), d.t, field.Element(uint64(j)*17+1))
		row := f.Row(field.Element(j + 1))
		coeffs := make([]field.Element, len(row))
		copy(coeffs, row)
		env.Send(async.PID(j), &proto.Envelope{Instance: "avss", Body: MsgRow{Coeffs: coeffs}})
	}
}
func (d *inconsistentDealer) Deliver(env *async.Env, m async.Message) {}

func TestInconsistentDealerNeverCompletesInconsistently(t *testing.T) {
	// A fully equivocating dealer must not get honest parties to complete
	// with shares that fail to determine a unique degree-t secret. Either
	// nobody completes (the common case: pairwise checks all fail), or —
	// if by construction some subset happens to be consistent — the
	// completed shares are mutually consistent.
	for seed := int64(0); seed < 10; seed++ {
		n, tf := 9, 2
		byz := map[int]async.Process{0: &inconsistentDealer{n: n, t: tf}}
		shares := runAVSS(t, n, tf, 0, byz, async.NewRandomScheduler(seed), seed)
		var got []shamir.Share
		for i := 1; i < n; i++ {
			if shares[i] != nil {
				got = append(got, shamir.Share{X: shamir.XOf(i), Y: *shares[i]})
			}
		}
		if len(got) == 0 {
			continue // nobody completed: safe
		}
		// If any completed, robust reconstruction must succeed (all honest
		// completions consistent up to t faults).
		if len(got) >= 2*tf+1 {
			if _, err := shamir.RobustReconstruct(got, tf, tf); err != nil {
				t.Fatalf("seed %d: inconsistent completions: %v", seed, err)
			}
		}
	}
}

// rushingReadySender floods READY without participating, trying to trick
// parties into premature completion.
type rushingReadySender struct{ n int }

func (r *rushingReadySender) Start(env *async.Env) {
	for j := 0; j < r.n; j++ {
		env.Send(async.PID(j), &proto.Envelope{Instance: "avss", Body: MsgReady{}})
	}
}
func (r *rushingReadySender) Deliver(env *async.Env, m async.Message) {}

func TestRushedReadiesDoNotForgeCompletion(t *testing.T) {
	// With the dealer crashed and two Byzantine parties spamming READY,
	// honest parties must never complete (they hold no row and cannot
	// recover one).
	n, tf := 9, 2
	byz := map[int]async.Process{
		0: silent{}, // dealer crashed
		7: &rushingReadySender{n: n},
		8: &rushingReadySender{n: n},
	}
	shares := runAVSS(t, n, tf, 0, byz, nil, 20)
	for i := 1; i < 7; i++ {
		if shares[i] != nil {
			t.Fatalf("party %d completed without a dealing", i)
		}
	}
}

// overDegreeDealer deals every party a consistent row of one symmetric
// bivariate polynomial of degree t+1: the rows cross-check pairwise, but
// the shares they define do not lie on a degree-t polynomial.
type overDegreeDealer struct{ n, t int }

func (d *overDegreeDealer) Start(env *async.Env) {
	f := poly.NewBivariate(env.Rand(), d.t+1, 5)
	for j, row := range f.Rows(d.n) {
		env.Send(async.PID(j), &proto.Envelope{Instance: "avss", Body: MsgRow{Coeffs: row}})
	}
}
func (d *overDegreeDealer) Deliver(env *async.Env, m async.Message) {}

// TestOverDegreeDealingRefused: the commitment holds only if each row's
// degree is checked. Rows of a degree-(t+1) bivariate agree pairwise, so
// without the check every honest party would verify its row and complete
// with a share on a degree-(t+1) polynomial; with it, no honest party
// accepts a row, so none completes.
func TestOverDegreeDealingRefused(t *testing.T) {
	n, tf := 5, 1
	byz := map[int]async.Process{0: &overDegreeDealer{n: n, t: tf}}
	shares := runAVSS(t, n, tf, 0, byz, nil, 3)
	for i := 1; i < n; i++ {
		if shares[i] != nil {
			t.Fatalf("party %d completed an over-degree dealing with share %v", i, *shares[i])
		}
	}
}

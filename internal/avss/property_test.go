package avss

import (
	"fmt"
	"math/rand"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/field"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/proto"
)

// cheatDealer is a Byzantine dealer (party 0) of m secrets. It deals the
// rows of m symmetric bivariate polynomials of degree deg (the last at
// deg+1 when overDeg, every component then taking deg+2 coefficients)
// and sends every party its own points, each through an optional tamper.
// With split, parties above n/2 get the rows and points of a second,
// independent set of polynomials. It never sends READY.
type cheatDealer struct {
	n, m, deg int
	overDeg   bool
	split     bool
	row       func(to int, coeffs []field.Element) []field.Element
	point     func(to int, v []field.Element) []field.Element
}

func (d *cheatDealer) Start(env *async.Env) {
	w := d.deg + 1
	if d.overDeg {
		w++
	}
	polys := func() []*poly.Bivariate {
		fs := make([]*poly.Bivariate, d.m)
		for k := range fs {
			deg := d.deg
			if d.overDeg && k == d.m-1 {
				deg++
			}
			fs[k] = poly.NewBivariate(env.Rand(), deg, field.Element(k+1))
		}
		return fs
	}
	fs, gs := polys(), polys()
	for j := range d.n {
		x := field.Element(j + 1)
		coeffs := make([]field.Element, d.m*w)
		v := make([]field.Element, d.m)
		set := fs
		if d.split && j > d.n/2 {
			set = gs
		}
		for k, f := range set {
			copy(coeffs[k*w:], f.Row(x))
			v[k] = f.Eval(1, x)
		}
		if d.row != nil {
			coeffs = d.row(j, coeffs)
		}
		if d.point != nil {
			v = d.point(j, v)
		}
		env.Send(async.PID(j), &proto.Envelope{Instance: "avss", Body: MsgRow{Coeffs: coeffs}})
		env.Send(async.PID(j), &proto.Envelope{Instance: "avss", Body: MsgPoint{V: v}})
	}
}
func (d *cheatDealer) Deliver(env *async.Env, m async.Message) {}

// sharingScheds are the schedulers the property tests sweep.
var sharingScheds = []struct {
	name string
	mk   func(seed int64) async.Scheduler
}{
	{"fifo", func(int64) async.Scheduler { return &async.FIFOScheduler{} }},
	{"roundrobin", func(int64) async.Scheduler { return &async.RoundRobinScheduler{} }},
	{"random", func(seed int64) async.Scheduler { return async.NewRandomScheduler(seed) }},
	{"delay", func(seed int64) async.Scheduler {
		return &async.DelayScheduler{Base: async.NewRandomScheduler(seed), Slow: map[async.PID]bool{1: true}}
	}},
}

// cheat is one Byzantine dealing strategy and the outcome it must get: all
// honest parties complete, or none does.
type cheat struct {
	name     string
	complete bool
	dealer   func(n, m, deg int) *cheatDealer
}

// cheats are the dealer strategies of TestVectorSharingProperties. The
// victim of a one-recipient cheat is party n-1; "last" is component m-1.
var cheats = []cheat{
	{"row off the polynomial in the last component for one recipient", true, func(n, m, deg int) *cheatDealer {
		return &cheatDealer{n: n, m: m, deg: deg, row: func(to int, c []field.Element) []field.Element {
			if to == n-1 {
				c[(m-1)*(deg+1)] = c[(m-1)*(deg+1)].Add(1)
			}
			return c
		}}
	}},
	{"row one coefficient short for one recipient", true, func(n, m, deg int) *cheatDealer {
		return &cheatDealer{n: n, m: m, deg: deg, row: func(to int, c []field.Element) []field.Element {
			if to == n-1 {
				return c[:len(c)-1]
			}
			return c
		}}
	}},
	{"last component at degree deg+1", false, func(n, m, deg int) *cheatDealer {
		return &cheatDealer{n: n, m: m, deg: deg, overDeg: true}
	}},
	{"point vectors one element short", true, func(n, m, deg int) *cheatDealer {
		return &cheatDealer{n: n, m: m, deg: deg, point: func(_ int, v []field.Element) []field.Element { return v[:m-1] }}
	}},
	{"point vectors corrupt in the last component", true, func(n, m, deg int) *cheatDealer {
		return &cheatDealer{n: n, m: m, deg: deg, point: func(_ int, v []field.Element) []field.Element {
			v[m-1] = v[m-1].Add(1)
			return v
		}}
	}},
	{"rows of two polynomials, split between the parties", false, func(n, m, deg int) *cheatDealer {
		return &cheatDealer{n: n, m: m, deg: deg, split: true}
	}},
}

// TestVectorSharingProperties states AVSS's guarantees for a vector
// sharing of m secrets and checks them over seeds × {fifo, roundrobin,
// random, delay} at n=5 (deg = faults = 1) and n=8 (deg 2, faults 1, the
// lib-n8 shape), for m = 1, 2, 3:
//   - an honest dealer: every honest party completes, and for each
//     component k the honest shares lie on one polynomial of degree at
//     most deg whose constant is secret k;
//   - a Byzantine dealer (cheats): either no honest party completes or
//     all of them do, with each component's shares on one polynomial of
//     degree at most deg (commitment). Each cheat also gets the outcome
//     it names, so a check that passes only because nobody completed
//     shows.
//
// It kills mutant avss-batch-first-component (the point check compares
// component 0 only): under the first cheat the victim's row in the last
// component is off, so with m >= 2 it then matches every peer, verifies
// its bad rows, and completes with a share off the polynomial.
func TestVectorSharingProperties(t *testing.T) {
	for _, shape := range []struct{ n, deg, faults int }{{5, 1, 1}, {8, 2, 1}} {
		for m := 1; m <= 3; m++ {
			for _, sc := range sharingScheds {
				for seed := int64(1); seed <= 3; seed++ {
					n, deg, faults := shape.n, shape.deg, shape.faults
					cell := fmt.Sprintf("n=%d m=%d %s seed %d", n, m, sc.name, seed)
					secrets := make([]field.Element, m)
					for k := range secrets {
						secrets[k] = field.Element(100*seed + int64(k))
					}
					shares, _ := runSharing(t, n, deg, faults, secrets, nil, sc.mk(seed), seed, nil)
					if err := committed(shares, 0, n, m, deg, true, secrets); err != nil {
						t.Errorf("%s, honest dealer: %v", cell, err)
					}
					for _, c := range cheats {
						byz := map[int]async.Process{0: c.dealer(n, m, deg)}
						shares, _ := runSharing(t, n, deg, faults, secrets, byz, sc.mk(seed), seed, nil)
						if err := committed(shares, 1, n, m, deg, c.complete, nil); err != nil {
							t.Errorf("%s, %s: %v", cell, c.name, err)
						}
					}
				}
			}
		}
	}
}

// committed checks the honest parties from..n-1: all completed (complete)
// or none did (!complete); when all did, each component's shares lie on
// one polynomial of degree at most deg, with constant secrets[k] when
// secrets is not nil.
func committed(shares [][]field.Element, from, n, m, deg int, complete bool, secrets []field.Element) error {
	for i := from; i < n; i++ {
		if (shares[i] != nil) != complete {
			return fmt.Errorf("party %d completed=%v, want %v (shares %v)", i, shares[i] != nil, complete, shares)
		}
	}
	if !complete {
		return nil
	}
	for k := range m {
		pts := make([]poly.Point, 0, n-from)
		for i := from; i < n; i++ {
			if len(shares[i]) != m {
				return fmt.Errorf("party %d got %d shares, want %d", i, len(shares[i]), m)
			}
			pts = append(pts, poly.Point{X: field.Element(i + 1), Y: shares[i][k]})
		}
		p, err := poly.Interpolate(pts)
		if err != nil {
			return err
		}
		if p.Degree() > deg {
			return fmt.Errorf("component %d: shares on a degree-%d polynomial, want <= %d", k, p.Degree(), deg)
		}
		if secrets != nil && p.Constant() != secrets[k] {
			return fmt.Errorf("component %d: secret %v, want %v", k, p.Constant(), secrets[k])
		}
	}
	return nil
}

// quorumCheat is a Byzantine plan for a sharing at n = 4t+1 with sharing
// degree and fault budget t: the dealer (party 0) and t-1 helpers
// (parties 1..t-1) are its t Byzantine parties. Each sends the honest
// parties the row (dealer only), point and READY the plan fixes, then
// stays silent. Every Byzantine party sends READY to every honest party.
type quorumCheat struct {
	n, t   int
	rows   map[int][]field.Element // the dealer's row for each honest party that gets one
	points func(from, to int) field.Element
}

// byzantine returns the plan's t Byzantine processes.
func (c *quorumCheat) byzantine() map[int]async.Process {
	byz := map[int]async.Process{}
	for k := range c.t {
		byz[k] = &quorumCheatParty{c: c, self: k}
	}
	return byz
}

type quorumCheatParty struct {
	c    *quorumCheat
	self int
}

func (p *quorumCheatParty) Start(env *async.Env) {
	c := p.c
	send := func(to int, body any) {
		env.Send(async.PID(to), &proto.Envelope{Instance: "avss", Body: body})
	}
	for j := c.t; j < c.n; j++ {
		if row, ok := c.rows[j]; ok && p.self == 0 {
			send(j, MsgRow{Coeffs: row})
		}
		send(j, MsgPoint{V: []field.Element{c.points(p.self, j)}})
		send(j, MsgReady{})
	}
}

func (p *quorumCheatParty) Deliver(*async.Env, async.Message) {}

// xOf is party i's evaluation point.
func xOf(i int) field.Element { return field.Element(i + 1) }

// padded returns p's coefficients as a row of exactly deg+1.
func padded(p poly.Poly, deg int) []field.Element {
	row := make([]field.Element, deg+1)
	copy(row, p)
	return row
}

// nearQuorumCheat leaves the honest parties one READY short of the
// completion quorum. Of the 3t+1 honest parties t..n-1, the first 2t (R)
// get rows of one symmetric polynomial F; the other t+1 (S) get rows that
// agree with their F-rows at the points of t parties of R and nowhere
// else, together covering R. The Byzantine parties send R points on F
// and S points off it. So every party of R matches itself, the rest of
// R, the t Byzantine parties and one party of S (n-t in all) and sends
// READY; no party of S matches n-t, and its points, 2t on its F-row and
// the rest off, decode to nothing. Every honest party sees the 2t READYs
// of R and t Byzantine ones: n-t-1.
func nearQuorumCheat(rng *rand.Rand, n, t int) *quorumCheat {
	f := poly.NewBivariate(rng, t, 7)
	r := make([]int, 2*t)
	for i := range r {
		r[i] = t + i
	}
	c := &quorumCheat{n: n, t: t, rows: map[int][]field.Element{}}
	for _, j := range r {
		c.rows[j] = padded(f.Row(xOf(j)), t)
	}
	for k := range t + 1 {
		s := 3*t + k
		pts := []poly.Point{{X: 0, Y: f.Eval(xOf(s), 0).Add(1)}}
		for i := range t {
			j := r[(k*t+i)%len(r)]
			pts = append(pts, poly.Point{X: xOf(j), Y: f.Eval(xOf(s), xOf(j))})
		}
		row, err := poly.Interpolate(pts)
		if err != nil {
			panic(err)
		}
		c.rows[s] = padded(row, t)
	}
	c.points = func(from, to int) field.Element {
		if to >= 3*t {
			return f.Eval(xOf(from), xOf(to)).Add(1)
		}
		return f.Eval(xOf(from), xOf(to))
	}
	return c
}

// mixedRecoveryCheat deals t+1 honest parties rows of two different
// symmetric polynomials (F to the first, G to the other t) and the other
// 2t honest parties (C) no row. To each party of C the Byzantine parties
// send points on the degree-t polynomial through the t+1 points the
// dealt parties send it. No honest party can send READY: a dealt party
// matches at most itself, its F- or G-peers and the t Byzantine parties,
// and a party of C may recover only after t+1 READYs, of which the
// Byzantine parties supply t. A party of C that recovered anyway would
// hold that mixed polynomial, and the dealt parties would then match it.
func mixedRecoveryCheat(rng *rand.Rand, n, t int) *quorumCheat {
	f, g := poly.NewBivariate(rng, t, 7), poly.NewBivariate(rng, t, 8)
	rowOf := func(j int) poly.Poly {
		if j == t {
			return f.Row(xOf(j))
		}
		return g.Row(xOf(j))
	}
	c := &quorumCheat{n: n, t: t, rows: map[int][]field.Element{}}
	for j := t; j <= 2*t; j++ {
		c.rows[j] = padded(rowOf(j), t)
	}
	mixed := make([]poly.Poly, n)
	for k := 2*t + 1; k < n; k++ {
		pts := make([]poly.Point, 0, t+1)
		for j := t; j <= 2*t; j++ {
			pts = append(pts, poly.Point{X: xOf(j), Y: rowOf(j).Eval(xOf(k))})
		}
		p, err := poly.Interpolate(pts)
		if err != nil {
			panic(err)
		}
		mixed[k] = p
	}
	c.points = func(from, to int) field.Element {
		if to > 2*t {
			return mixed[to].Eval(xOf(from))
		}
		return rowOf(to).Eval(xOf(from))
	}
	return c
}

// TestCompletionAllOrNoneUnderFaults states AVSS's agreement on
// completion with t faulty parties at n = 4t+1 (deg = faults = t; t = 1,
// 2), over seeds × {fifo, roundrobin, random, delay}: the honest parties
// all complete or none does, and the shares of those that complete lie on
// one polynomial of degree at most t (committed, which also checks that
// each cell gets the outcome it names).
//   - t silent parties (the last t) and an honest dealer: every other
//     party completes, on a polynomial whose constant is the secret.
//   - t Byzantine parties (the dealer and t-1 helpers) running
//     nearQuorumCheat or mixedRecoveryCheat: no honest party completes.
//
// It kills mutant avss-complete-quorum (completion on n-t-1 READYs):
// under nearQuorumCheat the parties of R then complete on the n-t-1
// READYs they see, while those of S can neither verify nor recover their
// rows. It kills mutant avss-recover-readies (recovery on t READYs):
// under mixedRecoveryCheat the parties of C then recover on the
// Byzantine parties' READYs alone, every dealt party matches them, and
// all complete with shares from F, G and the mixed polynomials, which
// lie on no polynomial of degree t.
func TestCompletionAllOrNoneUnderFaults(t *testing.T) {
	cheats := []struct {
		name string
		plan func(rng *rand.Rand, n, t int) *quorumCheat
	}{
		{"near quorum", nearQuorumCheat},
		{"mixed recovery", mixedRecoveryCheat},
	}
	for _, tf := range []int{1, 2} {
		n := 4*tf + 1
		for _, sc := range sharingScheds {
			for seed := int64(1); seed <= 3; seed++ {
				cell := fmt.Sprintf("n=%d t=%d %s seed %d", n, tf, sc.name, seed)
				secret := field.Element(40 + seed)
				crashed := map[int]async.Process{}
				for i := n - tf; i < n; i++ {
					crashed[i] = silent{}
				}
				shares, _ := runSharing(t, n, tf, tf, []field.Element{secret}, crashed, sc.mk(seed), seed, nil)
				if err := committed(shares, 0, n-tf, 1, tf, true, []field.Element{secret}); err != nil {
					t.Errorf("%s, %d silent: %v", cell, tf, err)
				}
				for _, c := range cheats {
					plan := c.plan(rand.New(rand.NewSource(seed)), n, tf)
					shares, _ := runSharing(t, n, tf, tf, []field.Element{secret}, plan.byzantine(), sc.mk(seed), seed, nil)
					if err := committed(shares, tf, n, 1, tf, false, nil); err != nil {
						t.Errorf("%s, %s: %v", cell, c.name, err)
					}
				}
			}
		}
	}
}

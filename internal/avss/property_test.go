package avss

import (
	"fmt"
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
	scheds := []struct {
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
	for _, shape := range []struct{ n, deg, faults int }{{5, 1, 1}, {8, 2, 1}} {
		for m := 1; m <= 3; m++ {
			for _, sc := range scheds {
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

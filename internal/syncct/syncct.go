// Package syncct implements the synchronous cheap-talk baseline (the
// ADGH/R1 regime the paper compares against): a lockstep round model in
// which every message sent in round r arrives at the start of round r+1,
// and a party that fails to send is *detected* by its silence — the
// capability asynchrony takes away, and the reason the paper's async
// bounds pay an extra k+t.
//
// The baseline protocol implements the same mediator workload as the
// asynchronous experiments (the Section 6.4 lottery: one shared uniform
// bit) with threshold d = k+t at n > 3(k+t) — one full k+t below the
// asynchronous exact bound n > 4(k+t), which is experiment E7's crossover.
//
// Fault model (a substitution for ADGH's full Byzantine model): crashes
// and stalls are tolerated outright (synchrony turns silence into
// erasures, which cost no decoding redundancy), while corrupted shares are
// *detected* —
// the degree check fails and honest parties abstain rather than output a
// wrong value. Full Byzantine correction in this regime needs the
// accusation/elimination machinery of ADGH's synchronous construction,
// which is out of scope for a baseline.
//
// Rounds:
//
//	R1  every party deals Shamir shares of a random contribution rho_d
//	    and of d zero-mask polynomials (privately, one share per party).
//	R2  every party broadcasts u_j = r_j^2 + z_j, its share of the
//	    masked square of r = sum of contributions.
//	R3  parties decode c = r^2 (degree 2d, up to t wrong/missing),
//	    compute the bit share b_j = (r_j/sqrt(c) + 1)/2 and broadcast it.
//	R4  parties decode b (degree d) and output it.
package syncct

import (
	"fmt"

	"asyncmediator/internal/field"
	"asyncmediator/internal/game"
	"asyncmediator/internal/poly"
	"asyncmediator/internal/rs"
	"asyncmediator/internal/shamir"
)

// Message is a synchronous-round message.
type Message struct {
	From, To int
	Payload  any
}

// Process is a lockstep participant: Round consumes the previous round's
// inbox and emits next-round messages.
type Process interface {
	// Round runs round r (starting at 1) with the messages delivered this
	// round and returns the messages to send.
	Round(r int, inbox []Message) []Message
	// Output returns the decided action once available.
	Output() (game.Action, bool)
}

// Run executes processes in lockstep until all non-nil processes have
// output or maxRounds elapse. Nil processes model crashed parties.
func Run(procs []Process, maxRounds int) {
	n := len(procs)
	inboxes := make([][]Message, n)
	for r := 1; r <= maxRounds; r++ {
		next := make([][]Message, n)
		allDone := true
		for i, p := range procs {
			if p == nil {
				continue
			}
			if _, done := p.Output(); !done {
				allDone = false
			}
			for _, m := range p.Round(r, inboxes[i]) {
				if m.To < 0 || m.To >= n {
					continue
				}
				m.From = i
				next[m.To] = append(next[m.To], m)
			}
		}
		if allDone {
			return
		}
		inboxes = next
	}
}

// Payloads.
type (
	// msgDeal carries one party's shares: the rho contribution share and
	// the mask shares w_1..w_d.
	msgDeal struct {
		Rho   field.Element
		Masks []field.Element
	}
	// msgSquare broadcasts u_j = r_j^2 + z_j.
	msgSquare struct{ U field.Element }
	// msgBit broadcasts the bit share.
	msgBit struct{ B field.Element }
)

// LotteryPlayer runs the synchronous lottery protocol.
type LotteryPlayer struct {
	// Self is this party's index; N total parties; D = k+t the threshold.
	Self, N, D int
	// Faults bounds wrong/missing values tolerated at decodings (t).
	Faults int
	Rng    field.Source

	deals   map[int]msgDeal
	rShare  field.Element
	zShare  field.Element
	squares map[int]field.Element
	bits    map[int]field.Element

	out     game.Action
	decided bool
}

var _ Process = (*LotteryPlayer)(nil)

// NewLotteryPlayer constructs a player. d is the privacy threshold k+t;
// faults is the malicious bound t used at decodings.
func NewLotteryPlayer(self, n, d, faults int, rng field.Source) (*LotteryPlayer, error) {
	if n < 2*d+faults+1 {
		// Opening the degree-2d masked square needs 2d+faults+1 agreeing
		// points among n; with d = k+t, faults = t <= d this is exactly
		// n > 3(k+t) ... the R1 bound.
		return nil, fmt.Errorf("syncct: n=%d too small for d=%d faults=%d", n, d, faults)
	}
	return &LotteryPlayer{
		Self: self, N: n, D: d, Faults: faults, Rng: rng,
		deals:   make(map[int]msgDeal),
		squares: make(map[int]field.Element),
		bits:    make(map[int]field.Element),
	}, nil
}

// Output implements Process.
func (p *LotteryPlayer) Output() (game.Action, bool) { return p.out, p.decided }

// Round implements Process.
func (p *LotteryPlayer) Round(r int, inbox []Message) []Message {
	switch r {
	case 1:
		return p.deal()
	case 2:
		p.collectDeals(inbox)
		return p.broadcastSquare()
	case 3:
		p.collectSquares(inbox)
		return p.broadcastBit()
	case 4:
		p.collectBits(inbox)
		p.decodeBit()
	}
	return nil
}

func (p *LotteryPlayer) deal() []Message {
	rho := poly.Random(p.Rng, p.D, field.Rand(p.Rng))
	masks := make([]poly.Poly, p.D)
	for l := range masks {
		masks[l] = poly.Random(p.Rng, p.D, field.Rand(p.Rng))
	}
	out := make([]Message, 0, p.N)
	for j := 0; j < p.N; j++ {
		x := shamir.XOf(j)
		m := msgDeal{Rho: rho.Eval(x), Masks: make([]field.Element, p.D)}
		for l := range masks {
			m.Masks[l] = masks[l].Eval(x)
		}
		out = append(out, Message{To: j, Payload: m})
	}
	return out
}

func (p *LotteryPlayer) collectDeals(inbox []Message) {
	for _, m := range inbox {
		d, ok := m.Payload.(msgDeal)
		if !ok || len(d.Masks) != p.D {
			continue // malformed: synchrony lets us just drop the dealer
		}
		if _, dup := p.deals[m.From]; dup {
			continue
		}
		p.deals[m.From] = d
	}
	// r = sum of contributions from every party heard from; silence is
	// detected here — the synchronous advantage.
	x := shamir.XOf(p.Self)
	var rsh, zsh field.Element
	for _, d := range p.deals {
		rsh = rsh.Add(d.Rho)
		xp := x
		for l := 0; l < p.D; l++ {
			zsh = zsh.Add(xp.Mul(d.Masks[l]))
			xp = xp.Mul(x)
		}
	}
	p.rShare = rsh
	p.zShare = zsh
}

func (p *LotteryPlayer) broadcastSquare() []Message {
	u := p.rShare.Mul(p.rShare).Add(p.zShare)
	out := make([]Message, 0, p.N)
	for j := 0; j < p.N; j++ {
		out = append(out, Message{To: j, Payload: msgSquare{U: u}})
	}
	return out
}

func (p *LotteryPlayer) collectSquares(inbox []Message) {
	for _, m := range inbox {
		s, ok := m.Payload.(msgSquare)
		if !ok {
			continue
		}
		if _, dup := p.squares[m.From]; dup {
			continue
		}
		p.squares[m.From] = s.U
	}
}

func (p *LotteryPlayer) broadcastBit() []Message {
	pts := make([]poly.Point, 0, len(p.squares))
	for j, u := range p.squares {
		pts = append(pts, poly.Point{X: shamir.XOf(j), Y: u})
	}
	sortPoints(pts)
	// Correct wrong shares when redundancy allows, otherwise detect them
	// and abstain.
	sq, ok := rs.OEC(pts, 2*p.D, p.Faults)
	if !ok {
		sq, ok = decodeDetecting(pts, 2*p.D)
	}
	if !ok {
		return nil // corruption detected or too few points: abstain
	}
	c := sq.Constant()
	var bShare field.Element
	if c == 0 {
		bShare = 0
	} else {
		s, isSq := c.Sqrt()
		if !isSq {
			return nil
		}
		inv2 := field.Element(2).Inv()
		bShare = p.rShare.Mul(s.Inv()).Add(1).Mul(inv2)
	}
	out := make([]Message, 0, p.N)
	for j := 0; j < p.N; j++ {
		out = append(out, Message{To: j, Payload: msgBit{B: bShare}})
	}
	return out
}

func (p *LotteryPlayer) collectBits(inbox []Message) {
	for _, m := range inbox {
		b, ok := m.Payload.(msgBit)
		if !ok {
			continue
		}
		if _, dup := p.bits[m.From]; dup {
			continue
		}
		p.bits[m.From] = b.B
	}
}

func (p *LotteryPlayer) decodeBit() {
	pts := make([]poly.Point, 0, len(p.bits))
	for j, b := range p.bits {
		pts = append(pts, poly.Point{X: shamir.XOf(j), Y: b})
	}
	sortPoints(pts)
	// The bit sharing has degree d; with n-crashes >= d+2*faults+1 points
	// we can even correct wrong shares here, so try correction first and
	// fall back to detection.
	bp, ok := rs.OEC(pts, p.D, p.Faults)
	if !ok {
		bp, ok = decodeDetecting(pts, p.D)
	}
	if !ok {
		return
	}
	v := bp.Constant()
	p.decided = true
	switch v {
	case 0:
		p.out = 0
	case 1:
		p.out = 1
	default:
		p.out = game.NoMove
	}
}

// decodeDetecting interpolates through all points and accepts only if the
// result respects the degree bound: erasures are free, corruption is
// detected (never silently accepted).
func decodeDetecting(pts []poly.Point, deg int) (poly.Poly, bool) {
	if len(pts) < deg+1 {
		return nil, false
	}
	p, err := poly.Interpolate(pts)
	if err != nil || p.Degree() > deg {
		return nil, false
	}
	return p, true
}

func sortPoints(pts []poly.Point) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].X < pts[j-1].X; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

package ba

import (
	"fmt"
	"math/rand"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/proto"
)

// An equivocation strategy says what a Byzantine party sends honest party
// p, given p's proposal v, in each of rounds 1-3.
type equivocation struct {
	name string
	est  func(v int) []int // the EST values
	aux  func(v int) int   // the AUX value
}

var equivocations = []equivocation{
	// mirror: agree with every party.
	{"mirror", func(v int) []int { return []int{v} }, func(v int) int { return v }},
	// contrary: agree on EST, then vote against the party's value.
	{"contrary", func(v int) []int { return []int{v} }, func(v int) int { return 1 - v }},
	// split: back both values on EST, each party's own on AUX.
	{"split", func(int) []int { return []int{0, 1} }, func(v int) int { return v }},
}

// equivocator is a Byzantine party playing one equivocation strategy at
// Start. It knows every proposal, as a full-information adversary does.
type equivocator struct {
	props []int
	byz   map[int]async.Process
	how   equivocation
}

func (q *equivocator) Start(env *async.Env) {
	for r := 1; r <= 3; r++ {
		for p, v := range q.props {
			if _, bad := q.byz[p]; bad {
				continue
			}
			for _, est := range q.how.est(v) {
				env.Send(async.PID(p), &proto.Envelope{Instance: "ba", Body: MsgEst{Round: r, V: est}})
			}
			env.Send(async.PID(p), &proto.Envelope{Instance: "ba", Body: MsgAux{Round: r, V: q.how.aux(v)}})
		}
	}
}

func (q *equivocator) Deliver(*async.Env, async.Message) {}

// TestAgreementAndValidityUnderEquivocation is BA's safety and liveness
// at the resilience bound n = 3t+1, t = 1 and 2, with parties 0..t-1
// equivocating (mirror, contrary and split) under the FIFO, random and
// round-robin schedulers, seeds 1-20. Every honest party decides, all
// decide alike, and when the honest parties propose alike they decide
// that value. It kills two mutants without any byte-identity test:
//   - ba-est-quorum (bin_values on 2t ESTs): a contrary equivocator's EST
//     and a lone honest proposer's own make 2t, so that value enters the
//     proposer's bin_values alone; its AUX for it counts at no other honest
//     party, and the others wait forever for one more valid AUX;
//   - ba-aux-quorum (a round on n-t-1 AUX): under a split equivocator two
//     honest parties complete a round on AUX sets that share no honest
//     sender, one seeing only 0 and the other only 1; the coin decides one
//     of them, and the others later decide the other value.
func TestAgreementAndValidityUnderEquivocation(t *testing.T) {
	scheds := []struct {
		name string
		new  func(seed int64) async.Scheduler
	}{
		{"fifo", func(int64) async.Scheduler { return &async.FIFOScheduler{} }},
		{"random", func(seed int64) async.Scheduler { return async.NewRandomScheduler(seed) }},
		{"roundrobin", func(int64) async.Scheduler { return &async.RoundRobinScheduler{} }},
	}
	for _, tf := range []int{1, 2} {
		n := 3*tf + 1
		for _, how := range equivocations {
			for _, sched := range scheds {
				for seed := int64(1); seed <= 20; seed++ {
					rng := rand.New(rand.NewSource(seed))
					props := make([]int, n)
					for i := range props {
						props[i] = rng.Intn(2)
					}
					if seed%3 == 0 { // every third seed: unanimous honest proposals
						for i := range props {
							props[i] = int(seed/3) % 2
						}
					}
					byz := make(map[int]async.Process, tf)
					for i := 0; i < tf; i++ {
						byz[i] = nil
					}
					for i := range byz {
						byz[i] = &equivocator{props: props, byz: byz, how: how}
					}
					res := runBA(t, n, tf, props, sharedCoins(seed), byz, sched.new(seed), seed)
					cell := fmt.Sprintf("t=%d %s %s seed %d props %v", tf, how.name, sched.name, seed, props[tf:])
					checkHonest(t, cell, res.decisions[tf:], props[tf:])
				}
			}
		}
	}
}

// checkHonest asserts termination, agreement and validity over the honest
// parties' decisions and proposals.
func checkHonest(t *testing.T, cell string, decisions, props []int) {
	t.Helper()
	unanimous := true
	for i, d := range decisions {
		if d < 0 {
			t.Fatalf("%s: honest party %d undecided: %v", cell, i, decisions)
		}
		if d != decisions[0] {
			t.Fatalf("%s: honest parties disagree: %v", cell, decisions)
		}
		unanimous = unanimous && props[i] == props[0]
	}
	if unanimous && decisions[0] != props[0] {
		t.Fatalf("%s: every honest party proposed %d, they decided %d", cell, props[0], decisions[0])
	}
}

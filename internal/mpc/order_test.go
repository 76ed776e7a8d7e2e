package mpc

import (
	"fmt"
	"strings"
	"testing"

	"asyncmediator/internal/async"
	"asyncmediator/internal/proto"
)

// tapped wraps a party's process and appends every message it sends to
// log. When lag is set, it also holds back the traffic of the per-gate
// core agreements ("mpc/mulcs/...") until the party has begun resharing
// its product share, then hands it over in arrival order. A party that
// lags its peers then reaches startReshare with their resharing dealings
// buffered, so several complete on the spot, while every agreement they
// feed is still undecided: startReshare itself proposes to all of them.
type tapped struct {
	inner     async.Process
	log       *[]string
	lag       bool
	resharing bool
	held      []async.Message
}

func (p *tapped) env(env *async.Env) *async.Env {
	return async.HookedEnv(env, func(to async.PID, payload any) (any, bool) {
		e := payload.(*proto.Envelope)
		p.resharing = p.resharing || strings.HasPrefix(e.Instance, "mpc/mul/")
		*p.log = append(*p.log, fmt.Sprintf("%d>%d %s %v", env.Self(), to, e.Instance, e.Body))
		return payload, true
	})
}

func (p *tapped) Start(env *async.Env) { p.inner.Start(p.env(env)) }

func (p *tapped) Deliver(env *async.Env, msg async.Message) {
	if e, ok := msg.Payload.(*proto.Envelope); ok && p.lag && !p.resharing && strings.HasPrefix(e.Instance, "mpc/mulcs/") {
		p.held = append(p.held, msg)
		return
	}
	p.inner.Deliver(p.env(env), msg)
	if p.resharing {
		held := p.held
		p.held = nil
		for _, m := range held {
			p.inner.Deliver(p.env(env), m)
		}
	}
}

// TestReshareProposesInDealerOrder: a party that reaches a secret×secret
// gate after its peers' resharing dealings have completed for it marks
// those dealings ready for the gate's core agreement in dealer order, so
// the agreement proposals it sends, and everything after them, are the
// same on every run of one seed. Party 4 lags (async.DelayScheduler over
// a seeded random schedule) and sees its core agreements' traffic only
// once it reshares. Seed 5 brings it to the gate with four dealings
// complete and all four agreements undecided; 20 runs of that seed must
// send one message sequence and compute x0·x1. The output check also
// kills the coreset-size mutant (a core closed on n-t-1 members): the
// product it yields here is wrong.
func TestReshareProposesInDealerOrder(t *testing.T) {
	const n, tf, lagging, seed = 5, 1, 4, 5
	inputs := singleInputs(n, 3)
	var first []string
	for run := 0; run < 20; run++ {
		var log []string
		outs, procs := mpcProcs(t, n, tf, mulCircuit(n), inputs, seed)
		for i := range procs {
			procs[i] = &tapped{inner: procs[i], log: &log, lag: i == lagging}
		}
		sched := &async.DelayScheduler{Base: async.NewRandomScheduler(seed), Slow: map[async.PID]bool{lagging: true}}
		rt, err := async.New(async.Config{Procs: procs, Scheduler: sched, Seed: seed, MaxSteps: 5_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		want := inputs[0][0].Mul(inputs[1][0])
		for p := 0; p < n; p++ {
			if outs[p][p] != want {
				t.Fatalf("run %d: party %d output %v, want %v", run, p, outs[p], want)
			}
		}
		if run == 0 {
			first = log
			continue
		}
		for i := range log {
			if i >= len(first) || log[i] != first[i] {
				t.Fatalf("run %d: message %d is %q, run 0 sent %q", run, i, log[i], at(first, i))
			}
		}
		if len(log) != len(first) {
			t.Fatalf("run %d sent %d messages, run 0 sent %d", run, len(log), len(first))
		}
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "nothing"
}

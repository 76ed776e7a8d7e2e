package service

import (
	"net/http"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/game"
)

func TestPhaseOf(t *testing.T) {
	cases := map[string]string{
		"ct/in/3/1":        "avss.share",
		"ct/in/0":          "avss.share",
		"ct/core/ba/2":     "ba",
		"ct/ba/0":          "ba",
		"ct/core":          "acs.core",
		"ct/out/1":         "mpc.open",
		"ct/rbopen/2":      "mpc.open",
		"ct/mul/5":         "mpc.mul",
		"ct/mulcs/5":       "mpc.mul",
		"ct/rbmul/1":       "mpc.mul",
		"ct/rbmulcs/1":     "mpc.mul",
		"ct/rho/2":         "mpc.mask",
		"ct/w/0":           "mpc.mask",
		"ct":               "proto",
		"":                 "proto",
		"something/else/3": "proto",
	}
	for instance, want := range cases {
		if got := phaseOf(instance); got != want {
			t.Errorf("phaseOf(%q) = %q, want %q", instance, got, want)
		}
	}
}

// TestTraceEndpointSimPlay: a plain simulator play yields a trace via
// GET /v1/sessions/{id}/trace — run span, scheduler lane, protocol
// phases, all recorded as the local origin — and the session list
// strips the (potentially large) trace from its page items.
func TestTraceEndpointSimPlay(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 1})
	sess, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err)
	}
	<-sess.Done()

	var tv api.TraceView
	status, err := getJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+sess.ID+"/trace", &tv)
	if err != nil || status != 200 {
		t.Fatalf("GET trace: status %d, err %v", status, err)
	}
	if tv.TraceID == "" {
		t.Fatal("empty trace id")
	}
	names := map[string]bool{}
	for _, s := range tv.Spans {
		names[s.Name] = true
		if s.Origin != originLocal {
			t.Fatalf("sim play span %q has origin %q, want %q", s.Name, s.Origin, originLocal)
		}
		if s.Count <= 0 {
			t.Fatalf("span %q has count %d", s.Name, s.Count)
		}
	}
	if !names["run"] {
		t.Fatalf("no run span in %v", names)
	}
	if !names["sched"] {
		t.Fatalf("no scheduler lane in %v", names)
	}
	if !names["avss.share"] && !names["ba"] {
		t.Fatalf("no protocol phase spans in %v", names)
	}

	// The terminal snapshot embeds the same trace; list pages do not.
	if v := sess.Snapshot(); v.Trace == nil || v.Trace.TraceID != tv.TraceID {
		t.Fatalf("snapshot trace %+v, want id %s", v.Trace, tv.TraceID)
	}
	var page api.SessionPage
	if status, err := getJSON(t, ts.Client(), ts.URL+"/v1/sessions", &page); err != nil || status != 200 {
		t.Fatalf("GET sessions: status %d, err %v", status, err)
	}
	for _, v := range page.Sessions {
		if v.Trace != nil {
			t.Fatalf("list item %s carries a trace", v.ID)
		}
	}
}

// TestTraceDisabled: with tracing off the play still completes, the
// snapshot has no trace, and the trace route answers 404.
func TestTraceDisabled(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 1, DisableTracing: true})
	sess, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	if v := sess.Snapshot(); v.State != StateDone || v.Trace != nil {
		t.Fatalf("untraced play: state %s, trace %+v", v.State, v.Trace)
	}
	status, e := getEnvelope(t, ts.Client(), ts.URL+"/v1/sessions/"+sess.ID+"/trace")
	expectCode(t, status, e, api.CodeNotFound)
}

// TestClusterPlayStitchedTrace is the cross-process acceptance test: a
// play spanning two daemons — with every live transport connection
// forcibly severed while it runs — ends with ONE trace on the
// coordinator, stitched from both processes under the shared trace id:
// local spans plus the peer's spans rewritten to its address.
func TestClusterPlayStitchedTrace(t *testing.T) {
	coord, peer, coordURL, peerURL := twoFarms(t, Config{Workers: 2})
	sess, err := coord.CreateSession(clusterSpec(peerURL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.SubmitTypes(sess.ID, []game.Type{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Chaos mid-play: sever everything both daemons have, repeatedly,
	// while the session runs. The links reconnect and replay; the trace
	// id travels in every re-HELLO, so stitching survives the drops.
	for i := 0; i < 100; i++ {
		coord.DropClusterConns()
		peer.DropClusterConns()
		select {
		case <-sess.Done():
			i = 100
		case <-time.After(500 * time.Microsecond):
		}
	}
	select {
	case <-sess.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("cluster session did not terminate")
	}
	v := sess.Snapshot()
	if v.State != StateDone || v.Deadlock {
		t.Fatalf("cluster play ended %s (deadlock %v)", v.State, v.Deadlock)
	}
	tr := v.Trace
	if tr == nil {
		t.Fatal("terminal cluster session has no trace")
	}
	if tr.TraceID == "" {
		t.Fatal("stitched trace has no id")
	}

	origins := map[string]bool{}
	peerPhases := 0
	for _, s := range tr.Spans {
		origins[s.Origin] = true
		if s.Origin == peerURL && s.Name != "run" {
			peerPhases++
		}
	}
	if !origins[originLocal] {
		t.Fatalf("no coordinator spans in origins %v", origins)
	}
	if !origins[peerURL] {
		t.Fatalf("no spans stitched from peer %s; origins %v", peerURL, origins)
	}
	if peerPhases == 0 {
		t.Fatal("peer contributed no protocol-phase spans")
	}

	// The GET route serves the same stitched view.
	var tv api.TraceView
	if status, err := getJSON(t, http.DefaultClient, coordURL+"/v1/sessions/"+sess.ID+"/trace", &tv); err != nil || status != 200 {
		t.Fatalf("GET trace: status %d, err %v", status, err)
	}
	if tv.TraceID != tr.TraceID || len(tv.Spans) != len(tr.Spans) {
		t.Fatalf("endpoint trace (%s, %d spans) != snapshot trace (%s, %d spans)",
			tv.TraceID, len(tv.Spans), tr.TraceID, len(tr.Spans))
	}
}

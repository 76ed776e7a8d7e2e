package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/service"
)

// ctlFarmTo boots a farm behind httptest and returns a runner that
// invokes the CLI against it, writing stdout to the given writer.
func ctlFarmTo(t *testing.T) (*service.Service, func(stdout io.Writer, args ...string) int) {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, func(stdout io.Writer, args ...string) int {
		t.Helper()
		var stderr bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		code := run(ctx, append([]string{"-addr", ts.URL}, args...), stdout, &stderr)
		if stderr.Len() > 0 {
			t.Logf("stderr: %s", stderr.String())
		}
		return code
	}
}

// captured turns a ctlFarmTo runner into one that returns stdout.
func captured(runTo func(stdout io.Writer, args ...string) int) func(args ...string) (string, int) {
	return func(args ...string) (string, int) {
		var stdout bytes.Buffer
		code := runTo(&stdout, args...)
		return stdout.String(), code
	}
}

// ctlFarm is ctlFarmTo with stdout captured and returned.
func ctlFarm(t *testing.T) (*service.Service, func(args ...string) (string, int)) {
	t.Helper()
	svc, runTo := ctlFarmTo(t)
	return svc, captured(runTo)
}

// firstWrite is the stdout of a streaming subcommand: it captures the
// output and closes seen at the first write.
type firstWrite struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	once sync.Once
	seen chan struct{}
}

func (w *firstWrite) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.once.Do(func() { close(w.seen) })
	return w.buf.Write(p)
}

// TestCtlSessionLifecycle is the CLI acceptance path CI also drives:
// session create -> types -> watch to a terminal snapshot.
func TestCtlSessionLifecycle(t *testing.T) {
	_, ctl := ctlFarm(t)

	out, code := ctl("session", "create", "-n", "4", "-k", "1", "-variant", "4.2")
	if code != 0 {
		t.Fatalf("create exit %d: %s", code, out)
	}
	var h api.Handle
	if err := json.Unmarshal([]byte(out), &h); err != nil || h.ID == "" || h.State != api.StateAwaitingTypes {
		t.Fatalf("create output %q: %v", out, err)
	}

	out, code = ctl("session", "types", h.ID, "0,0,0,0")
	if code != 0 {
		t.Fatalf("types exit %d: %s", code, out)
	}

	out, code = ctl("session", "watch", h.ID)
	if code != 0 {
		t.Fatalf("watch exit %d: %s", code, out)
	}
	var v api.SessionView
	if err := json.Unmarshal([]byte(out), &v); err != nil {
		t.Fatalf("watch output %q: %v", out, err)
	}
	if v.State != api.StateDone || len(v.Profile) != 4 {
		t.Fatalf("watched view %+v", v)
	}

	// get and list see the same session.
	out, code = ctl("session", "get", h.ID)
	if code != 0 || !strings.Contains(out, h.ID) {
		t.Fatalf("get exit %d: %s", code, out)
	}
	out, code = ctl("session", "list", "-state", "done")
	if code != 0 {
		t.Fatalf("list exit %d: %s", code, out)
	}
	var page api.SessionPage
	if err := json.Unmarshal([]byte(out), &page); err != nil || page.Total != 1 {
		t.Fatalf("list output %q: %v", out, err)
	}

	// stats reflect the play.
	out, code = ctl("stats")
	if code != 0 {
		t.Fatalf("stats exit %d: %s", code, out)
	}
	var st api.Stats
	if err := json.Unmarshal([]byte(out), &st); err != nil || st.Sessions != 1 {
		t.Fatalf("stats output %q: %v", out, err)
	}
}

// TestCtlCreateTypesWatchOneShot covers the -types/-watch convenience
// and the events tail.
func TestCtlCreateTypesWatchOneShot(t *testing.T) {
	svc, runTo := ctlFarmTo(t)
	ctl := captured(runTo)
	history := svc.Events().Subscribe(0)

	out, code := ctl("session", "create", "-types", "0,0,0,0,0", "-watch")
	if code != 0 {
		t.Fatalf("one-shot exit %d: %s", code, out)
	}
	// -watch long-polls, and a session turns terminal just before its
	// terminal event is published: let that event pass before tailing, or
	// the tail would count it as the first of its four lines.
	for e := range history.C {
		if e.Terminal {
			break
		}
	}
	history.Cancel()
	var v api.SessionView
	if err := json.Unmarshal([]byte(out), &v); err != nil || v.State != api.StateDone || len(v.Profile) != 5 {
		t.Fatalf("one-shot output %q: %v", out, err)
	}

	// events tail -n sees the finished session's history (hello + at
	// least one line); run a second play while tailing is racy in a test,
	// so tail the next play's four transitions.
	done := make(chan struct{})
	tail := &firstWrite{seen: make(chan struct{})}
	var tailCode int
	go func() {
		defer close(done)
		tailCode = runTo(tail, "events", "tail", "-kind", "session", "-n", "4")
	}()
	// The tail prints the stream's hello frame first, and the server
	// sends that only once the subscription is open.
	select {
	case <-tail.seen:
	case <-done:
		t.Fatalf("events tail exited %d before its hello line", tailCode)
	}
	if out, code := ctl("session", "create", "-types", "0,0,0,0,0", "-watch"); code != 0 {
		t.Fatalf("second play exit %d: %s", code, out)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("events tail did not finish")
	}
	tailOut := tail.buf.String() // the tail returned: no more writes
	if tailCode != 0 {
		t.Fatalf("tail exit %d: %s", tailCode, tailOut)
	}
	lines := strings.Split(strings.TrimSpace(tailOut), "\n")
	if len(lines) != 5 { // hello + 4 transitions
		t.Fatalf("tail lines %d: %s", len(lines), tailOut)
	}
	var last api.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Terminal {
		t.Fatalf("last tail line %q: %v", lines[len(lines)-1], err)
	}
}

// TestCtlExperiments covers catalog, a waited run, a -no-wait run, and
// job get; the retired -sync flag is a usage error.
func TestCtlExperiments(t *testing.T) {
	_, ctl := ctlFarm(t)

	out, code := ctl("experiment", "list")
	if code != 0 {
		t.Fatalf("list exit %d: %s", code, out)
	}
	var cat []api.ExperimentInfo
	if err := json.Unmarshal([]byte(out), &cat); err != nil || len(cat) != 7 {
		t.Fatalf("catalog %q: %v", out, err)
	}

	out, code = ctl("experiment", "run", "e7", "-trials", "2", "-seed", "5")
	if code != 0 {
		t.Fatalf("run exit %d: %s", code, out)
	}
	var done api.ExperimentJobView
	if err := json.Unmarshal([]byte(out), &done); err != nil || done.State != api.StateDone || done.Table == nil || done.Table.ID != "e7" || len(done.Table.Rows) == 0 {
		t.Fatalf("waited run %q: %v", out, err)
	}
	if out, code := ctl("experiment", "run", "e7", "-sync"); code != 2 {
		t.Fatalf("-sync exit %d: %s", code, out)
	}

	out, code = ctl("experiment", "run", "e7", "-trials", "2", "-no-wait")
	if code != 0 {
		t.Fatalf("async run exit %d: %s", code, out)
	}
	var h api.Handle
	if err := json.Unmarshal([]byte(out), &h); err != nil || !strings.HasPrefix(h.ID, "x-") {
		t.Fatalf("job handle %q: %v", out, err)
	}
	out, code = ctl("experiment", "get", h.ID, "-wait")
	if code != 0 {
		t.Fatalf("job get exit %d: %s", code, out)
	}
	var jv api.ExperimentJobView
	if err := json.Unmarshal([]byte(out), &jv); err != nil || jv.State != api.StateDone || jv.Table == nil {
		t.Fatalf("job view %q: %v", out, err)
	}
}

// TestCtlErrorsAndUsage pins exit codes: 1 for API errors, 2 for usage
// mistakes; ready and apidoc work.
func TestCtlErrorsAndUsage(t *testing.T) {
	_, ctl := ctlFarm(t)

	if out, code := ctl("session", "get", "s-424242"); code != 1 {
		t.Fatalf("unknown session exit %d: %s", code, out)
	}
	if out, code := ctl("session", "frobnicate"); code != 2 {
		t.Fatalf("bad verb exit %d: %s", code, out)
	}
	if out, code := ctl("session", "get"); code != 2 {
		t.Fatalf("missing arg exit %d: %s", code, out)
	}
	if out, code := ctl(); code != 2 {
		t.Fatalf("no command exit %d: %s", code, out)
	}
	if out, code := ctl("obs", "profiles"); code != 2 {
		t.Fatalf("retired obs profiles exit %d: %s", code, out)
	}
	if out, code := ctl("ready"); code != 0 || !strings.Contains(out, `"ready": true`) {
		t.Fatalf("ready exit %d: %s", code, out)
	}
	out, code := ctl("apidoc")
	if code != 0 {
		t.Fatalf("apidoc exit %d", code)
	}
	if out != api.Reference() {
		t.Fatal("apidoc does not print api.Reference()")
	}
	for _, want := range []string{"/v1/sessions", "pool_saturated", "next_offset"} {
		if !strings.Contains(out, want) {
			t.Fatalf("apidoc misses %q", want)
		}
	}
	_ = fmt.Sprintf // keep fmt imported if assertions change
}

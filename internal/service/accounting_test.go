package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/game"
	"asyncmediator/pkg/client"
)

// TestTerminalImpliesPersistedAndCounted pins the ordering guarantee of
// exec: the instant a client's wait returns a terminal session, that play
// is already in /v1/stats (totals, outcome and duration histograms) and
// its record and retained trace are already readable from the store. The
// 1-session hot cache makes every lookup after eviction a store read.
func TestTerminalImpliesPersistedAndCounted(t *testing.T) {
	const clients, playsEach = 4, 25
	svc, ts := httpFarm(t, Config{Workers: 2, DataDir: t.TempDir(), MaxLiveSessions: 1})
	c, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var returned atomic.Int64 // waits that have returned, farm-wide
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < playsEach; j++ {
				h, err := c.CreateSession(ctx, api.SessionSpec{N: 4, K: 1, Variant: "4.2"})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.SubmitTypes(ctx, h.ID, make([]int, 4)); err != nil {
					t.Error(err)
					return
				}
				v, err := c.WaitSession(ctx, h.ID)
				if err != nil || v.State != api.StateDone {
					t.Errorf("wait %s: %v %s", h.ID, err, v.State)
					return
				}
				n := returned.Add(1)
				tot := svc.Stats().StatsTotals
				var outcomes int64
				for _, k := range tot.Outcomes {
					outcomes += k
				}
				if tot.Sessions < n || outcomes < n || tot.Durations["4.2"].Count < n {
					t.Errorf("%s is done, but stats count %d sessions, %d outcomes, %d durations after %d returned waits",
						h.ID, tot.Sessions, outcomes, tot.Durations["4.2"].Count, n)
				}
				data, ok := svc.st.Get(h.ID)
				var stored View
				if !ok || unmarshalView(data, &stored) != nil || stored.State != StateDone {
					t.Errorf("%s is done, but its stored record is missing or not terminal (found %v, state %q)", h.ID, ok, stored.State)
				}
				if _, ok := svc.traces.Trace(h.ID); !ok {
					t.Errorf("%s is done, but its trace is not retained", h.ID)
				}
			}
		}()
	}
	wg.Wait()
}

// scrape reads a /metrics exposition into series -> value (the series
// key includes its label set) and family name -> type.
func scrape(t *testing.T, url string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, types = make(map[string]float64), make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed exposition line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, types
}

// TestMetricsAgreeWithStats: /metrics and /v1/stats are two views of the
// same obs objects, so on a quiet farm the play totals match series for
// series and every duration histogram is internally consistent.
func TestMetricsAgreeWithStats(t *testing.T) {
	svc, ts := httpFarm(t, Config{Workers: 2})
	runSessions(t, svc, 5) // variant 4.2
	sess, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err)
	}
	<-sess.Done() // variant 4.1

	sv := svc.Stats() // what GET /v1/stats serializes, plus the raw buckets
	m, _ := scrape(t, ts.URL+"/metrics")
	if sv.Sessions != 6 {
		t.Fatalf("stats count %d sessions, want 6", sv.Sessions)
	}
	for series, want := range map[string]int64{
		"mediatord_sessions_completed_total":  sv.Sessions,
		"mediatord_sessions_failed_total":     sv.Failed,
		"mediatord_sessions_deadlocked_total": sv.Deadlocked,
		"mediatord_steps_total":               sv.Steps,
		"mediatord_messages_sent_total":       sv.MessagesSent,
		"mediatord_messages_delivered_total":  sv.MessagesDelivered,
		"mediatord_sessions_created_total":    int64(sv.SessionsCreated),
	} {
		if got, ok := m[series]; !ok || int64(got) != want {
			t.Errorf("%s = %v (present %v), /v1/stats says %d", series, got, ok, want)
		}
	}
	var outcomes int64
	for profile, n := range sv.Outcomes {
		outcomes += n
		if got := m[`mediatord_session_outcomes_total{profile="`+profile+`"}`]; int64(got) != n {
			t.Errorf("outcome %s: /metrics %v, /v1/stats %d", profile, got, n)
		}
	}
	if outcomes != sv.Sessions-sv.Failed {
		t.Errorf("outcomes sum to %d, want %d", outcomes, sv.Sessions-sv.Failed)
	}
	if len(sv.Durations) != 2 {
		t.Fatalf("duration variants %v, want 4.1 and 4.2", sv.Durations)
	}
	var plays int64
	for variant, ds := range sv.Durations {
		plays += ds.Count
		var buckets int64
		for _, n := range ds.Buckets {
			buckets += n
		}
		name := "mediatord_session_duration_seconds"
		inf := m[name+`_bucket{variant="`+variant+`",le="+Inf"}`]
		count := m[name+`_count{variant="`+variant+`"}`]
		if buckets != ds.Count || int64(inf) != ds.Count || int64(count) != ds.Count {
			t.Errorf("variant %s: stats count %d, bucket sum %d, /metrics +Inf %v, _count %v", variant, ds.Count, buckets, inf, count)
		}
		if sum := m[name+`_sum{variant="`+variant+`"}`]; sum != ds.Sum {
			t.Errorf("variant %s: /metrics _sum %v, /v1/stats %v", variant, sum, ds.Sum)
		}
	}
	if plays != sv.Sessions {
		t.Errorf("duration histograms hold %d plays, want %d", plays, sv.Sessions)
	}
}

// TestMetricsKeepParentSeries compares a live scrape of a fully armed
// daemon (durable, with an SLO objective) against the committed list of
// family names and types the /metrics of the commit before the obs
// consolidation emitted, less the fleet and placement families retired
// with those planes: a dashboard built against that daemon finds every
// family it queried that still has a source.
func TestMetricsKeepParentSeries(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_metrics_series.txt")
	if err != nil {
		t.Fatal(err)
	}
	f := newFarm(t, Config{DataDir: t.TempDir(), SLOObjectives: []string{"variant:Theorem4.2:p99:1s"}})
	runSessions(t, f, 2)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	_, types := scrape(t, ts.URL+"/metrics")
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, typ, _ := strings.Cut(line, " ")
		if got, ok := types[name]; !ok || got != typ {
			t.Errorf("family %s: parent exposed a %s, this daemon exposes %q (present %v)", name, typ, got, ok)
		}
	}
}

// TestDrainReportNamesWhatItWaitsOn: the line Close logs once a drain
// outlasts drainWarnAfter names the wedged worker, the queued job and
// the session stuck behind them.
func TestDrainReportNamesWhatItWaitsOn(t *testing.T) {
	svc := newFarm(t, Config{Workers: 1, QueueDepth: 4})
	release, started := make(chan struct{}), make(chan struct{})
	if err := svc.pool.Submit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	sess, err := svc.CreateSession(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitTypes(sess.ID, make([]game.Type, 5)); err != nil {
		t.Fatal(err)
	}
	report := svc.drainReport()
	close(release)
	svc.Close()
	for _, want := range []string{"1 active workers", "1 queued jobs", sess.ID, "0 pending experiment jobs"} {
		if !strings.Contains(report, want) {
			t.Errorf("drain report %q misses %q", report, want)
		}
	}
	if st := sess.stateNow(); st != StateDone {
		t.Fatalf("Close returned with the queued session %s", st)
	}
}

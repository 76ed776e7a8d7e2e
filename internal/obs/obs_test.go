package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncmediator/api"
)

func TestDeriveTraceIDStable(t *testing.T) {
	a := DeriveTraceID("s-000001", "42")
	b := DeriveTraceID("s-000001", "42")
	if a != b {
		t.Fatalf("trace id not stable: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("trace id %q not 16 hex chars", a)
	}
	if DeriveTraceID("s-000002", "42") == a {
		t.Fatal("distinct sessions share a trace id")
	}
	// The separator matters: ("ab","c") and ("a","bc") must differ.
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Fatal("part boundaries not separated")
	}
}

func TestPlayTraceObserveAggregates(t *testing.T) {
	tr := NewPlayTrace("t1")
	tr.ObserveN("rbc", "local", 1)
	tr.ObserveN("rbc", "local", 1)
	tr.ObserveN("ba", "local", 1)
	v := tr.View()
	if v.TraceID != "t1" {
		t.Fatalf("view trace id %q, want t1", v.TraceID)
	}
	spans := v.Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	byName := map[string]api.TraceSpan{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["rbc"].Count != 2 || byName["ba"].Count != 1 {
		t.Fatalf("counts wrong: %+v", byName)
	}
	if byName["rbc"].EndUS < byName["rbc"].StartUS {
		t.Fatalf("span ends before it starts: %+v", byName["rbc"])
	}
}

func TestPlayTraceBound(t *testing.T) {
	tr := NewPlayTrace("t2")
	for i := 0; i < spanLimit; i++ {
		tr.ObserveN(strconv.Itoa(i), "x", 1)
	}
	tr.ObserveN("over", "x", 1) // over the bound: dropped
	tr.ObserveN("0", "x", 1)    // existing span: still counted
	v := tr.View()
	if len(v.Spans) != spanLimit {
		t.Fatalf("bound leaked: %d spans", len(v.Spans))
	}
	if v.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", v.Dropped)
	}
	// Merge respects the same bound.
	tr.Merge(&api.TraceView{Spans: []api.TraceSpan{{Name: "e"}, {Name: "f"}}}, "http://peer")
	if v = tr.View(); len(v.Spans) != spanLimit {
		t.Fatalf("merge leaked past the bound: %d spans", len(v.Spans))
	}
	if v.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", v.Dropped)
	}
}

func TestPlayTraceBeginAndAnnotate(t *testing.T) {
	tr := NewPlayTrace("t3")
	end := tr.Begin("run", "local")
	time.Sleep(time.Millisecond)
	end()
	tr.Annotate("run", "local", "cpu_ms", "1.5")
	spans := tr.View().Spans
	if len(spans) != 1 {
		t.Fatalf("spans %+v", spans)
	}
	s := spans[0]
	if s.EndUS <= s.StartUS {
		t.Fatalf("run span has no extent: %+v", s)
	}
	if s.Attrs["cpu_ms"] != "1.5" {
		t.Fatalf("attrs %+v", s.Attrs)
	}
}

func TestPlayTraceMergeStitches(t *testing.T) {
	tr := NewPlayTrace("t4")
	tr.ObserveN("rbc", "local", 1)
	// A peer records its own spans as "local"; Merge stamps the origin
	// the coordinator names the peer by.
	peer := &api.TraceView{TraceID: "t4", Spans: []api.TraceSpan{
		{Name: "rbc", Origin: "local", StartUS: 5, EndUS: 9, Count: 3, Attrs: map[string]string{"k": "v"}},
	}}
	tr.Merge(peer, "http://peer")
	peer.Spans[0].Attrs["k"] = "changed" // the merged copy is the trace's own
	spans := tr.View().Spans
	if len(spans) != 2 {
		t.Fatalf("spans %+v", spans)
	}
	byOrigin := map[string]api.TraceSpan{}
	for _, s := range spans {
		byOrigin[s.Origin] = s
	}
	got, ok := byOrigin["http://peer"]
	if _, local := byOrigin["local"]; !local || !ok {
		t.Fatalf("origins %+v", byOrigin)
	}
	if got.Count != 3 || got.StartUS != 5 || got.EndUS != 9 || got.Attrs["k"] != "v" {
		t.Fatalf("stitched span %+v", got)
	}
}

func TestNilPlayTraceIsSafe(t *testing.T) {
	var tr *PlayTrace
	tr.ObserveN("a", "b", 1)
	tr.Begin("a", "b")()
	tr.Annotate("a", "b", "k", "v")
	tr.Merge(&api.TraceView{Spans: []api.TraceSpan{{Name: "x"}}}, "http://peer")
	if tr.ID() != "" || tr.NowUS() != 0 || tr.View() != nil {
		t.Fatal("nil trace leaked state")
	}
}

func TestPlayTraceConcurrent(t *testing.T) {
	tr := NewPlayTrace("t5")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.ObserveN("phase", "local", 1)
			}
		}()
	}
	wg.Wait()
	spans := tr.View().Spans
	if len(spans) != 1 || spans[0].Count != 4000 {
		t.Fatalf("spans %+v", spans)
	}
}

func TestRegistryPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	c.Add(3)
	c.Inc()
	r.GaugeFunc("test_depth", "Depth.", func() float64 { return 2.5 })
	r.GaugeFunc("test_pull", "Pulled.", func() float64 { return 7 })
	h := r.Histogram("test_wait_seconds", "Wait.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 4",
		"# TYPE test_depth gauge",
		"test_depth 2.5",
		"test_pull 7",
		`test_wait_seconds_bucket{le="0.1"} 1`,
		`test_wait_seconds_bucket{le="1"} 2`,
		`test_wait_seconds_bucket{le="+Inf"} 3`,
		"test_wait_seconds_sum 5.55",
		"test_wait_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicateNamesCoalesce(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "a")
	b := r.Counter("dup_total", "b")
	if a != b {
		t.Fatal("duplicate registration minted a second counter")
	}
	a.Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if strings.Count(sb.String(), "# TYPE dup_total") != 1 {
		t.Fatalf("duplicate series rendered:\n%s", sb.String())
	}
}

func TestCPUTimeMonotone(t *testing.T) {
	a := CPUTime()
	// Burn a little CPU so the second sample can move.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i
	}
	_ = x
	b := CPUTime()
	if b < a {
		t.Fatalf("CPU time went backwards: %v -> %v", a, b)
	}
}

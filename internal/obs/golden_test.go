package obs

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the WritePrometheus golden file")

// TestWritePrometheusGolden pins the full text exposition byte-for-byte:
// registration-order rendering, HELP escaping (backslash, newline),
// non-finite gauge values (NaN, +Inf, -Inf), pull-time funcs,
// histogram cumulative buckets, and single-label families (sorted,
// escaped label values; the _other overflow series). A renderer change that is invisible to
// substring assertions — reordered series, altered escaping — fails here.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	// Registered deliberately out of alphabetical order: the format must
	// follow registration order, not name order.
	r.Counter("zz_requests_total", "Requests handled.").Add(42)
	r.GaugeFunc("aa_temperature", `Escaping: a back\slash and a
newline must both be escaped.`, func() float64 { return 36.6 })
	r.GaugeFunc("bb_not_a_number", "A gauge holding NaN renders as NaN.", math.NaN)
	r.GaugeFunc("cc_infinite", "A gauge holding +Inf renders as +Inf.", func() float64 { return math.Inf(1) })
	r.GaugeFunc("dd_negative_infinite", "A gauge holding -Inf renders as -Inf.", func() float64 { return math.Inf(-1) })
	r.CounterFunc("ee_pulled_total", "A pull-time counter.", func() float64 { return 7 })
	r.GaugeFunc("ff_pulled", "A pull-time gauge.", func() float64 { return 0.25 })
	h := r.Histogram("gg_latency_seconds", "A three-bucket histogram.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	// Families render their series in sorted label-value order, whatever
	// order the values first appeared in; label values are escaped.
	cv := r.CounterVec("hh_rejections_total", "A counter family.", "reason")
	cv.With("under_floor").Add(2)
	cv.With(`a "quoted\" reason`).Inc()
	hv := r.HistogramVec("ii_duration_seconds", "A histogram family.", "variant", []float64{0.1, 1})
	hv.With("4.2").Observe(0.5)
	hv.With("4.1").Observe(0.05)
	hv.With("4.1").Observe(5)
	r.GaugeVecFunc("jj_in_state", "A pull-time gauge family.", "state",
		func() map[string]float64 { return map[string]float64{"running": 1, "done": 2.5} })
	// A family past its cardinality bound folds the surplus into _other.
	over := r.CounterVec("ll_overflowed_total", "A counter family past MaxLabelValues.", "k")
	for i := 0; i < MaxLabelValues+3; i++ {
		over.With(fmt.Sprintf("k%02d", i)).Inc()
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	got := sb.String()

	golden := filepath.Join("testdata", "write_prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with `go test ./internal/obs -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("WritePrometheus drifted from the golden file; if intentional, rerun with -update\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Determinism: a second render of the same registry is identical.
	var again strings.Builder
	r.WritePrometheus(&again)
	if again.String() != got {
		t.Error("two renders of one registry differ")
	}
}

// TestWritePrometheusHelpEscaping spot-checks the escaped HELP bytes so
// a golden regeneration can't silently bless broken escaping.
func TestWritePrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "line one\nline two with \\ backslash", func() float64 { return 1 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if want := `# HELP g line one\nline two with \\ backslash`; !strings.Contains(out, want) {
		t.Fatalf("HELP escaping wrong:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 { // HELP, TYPE, value
		t.Fatalf("raw newline leaked into the exposition:\n%q", out)
	}
}

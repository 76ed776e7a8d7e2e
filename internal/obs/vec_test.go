package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestVecConcurrentTotals is the farm's accounting pattern under -race:
// many goroutines add to plain counters and to children of one vector at
// once, and every add must land exactly once.
func TestVecConcurrentTotals(t *testing.T) {
	const workers, perWorker = 8, 500
	r := NewRegistry()
	sessions := r.Counter("sessions_total", "")
	steps := r.Counter("steps_total", "")
	outcomes := r.CounterVec("outcomes_total", "", "profile")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sessions.Inc()
				steps.Add(2)
				outcomes.With(fmt.Sprintf("p%d", w%2)).Inc()
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perWorker)
	if sessions.Value() != want || steps.Value() != 2*want {
		t.Fatalf("counters: sessions %d steps %d, want %d / %d", sessions.Value(), steps.Value(), want, 2*want)
	}
	vals := outcomes.Values()
	if len(vals) != 2 || vals["p0"] != want/2 || vals["p1"] != want/2 {
		t.Fatalf("outcomes %v, want p0 = p1 = %d", vals, want/2)
	}
}

// TestHistogramVecQuantiles feeds known durations and checks the
// per-variant summaries /v1/stats derives from the snapshots.
func TestHistogramVecQuantiles(t *testing.T) {
	bounds := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
	hv := NewRegistry().HistogramVec("duration_seconds", "", "variant", bounds)
	// 90 fast plays and 10 slow ones under variant 4.1; one other variant.
	for i := 0; i < 90; i++ {
		hv.With("4.1").Observe(0.002)
	}
	for i := 0; i < 10; i++ {
		hv.With("4.1").Observe(0.7)
	}
	hv.With("4.4").Observe(0.08)

	snaps := hv.Snapshots()
	if len(snaps) != 2 || snaps["4.4"].Count != 1 {
		t.Fatalf("variants: %+v", snaps)
	}
	s := snaps["4.1"]
	if s.Count != 100 || s.Total() != s.Count {
		t.Fatalf("count %d, buckets sum %d, want 100", s.Count, s.Total())
	}
	// p50 lands in the (1ms, 2.5ms] bucket; p99 in the (0.5s, 1s] bucket.
	if p50 := s.Quantile(0.50); p50 <= 0.001 || p50 > 0.0025 {
		t.Fatalf("p50 %v", p50)
	}
	if p99 := s.Quantile(0.99); p99 <= 0.5 || p99 > 1.0 {
		t.Fatalf("p99 %v", p99)
	}
	// A sample equal to a bound belongs to that bound's bucket.
	hv.With("edge").Observe(0.001)
	if c := hv.Snapshots()["edge"].Counts; c[0] != 1 {
		t.Fatalf("v == bound landed outside its bucket: %v", c)
	}
}

// TestVecCardinalityCap: label values beyond MaxLabelValues aggregate
// under OverflowLabel instead of minting unbounded series — for pushed
// and pulled families alike.
func TestVecCardinalityCap(t *testing.T) {
	const extra = 8
	r := NewRegistry()
	hv := r.HistogramVec("h", "", "variant", []float64{1})
	cv := r.CounterVec("c", "", "variant")
	pulled := make(map[string]float64)
	for i := 0; i < MaxLabelValues+extra; i++ {
		v := fmt.Sprintf("v%03d", i)
		hv.With(v).Observe(0.5)
		cv.With(v).Inc()
		pulled[v] = 1
	}
	snaps, vals := hv.Snapshots(), cv.Values()
	if len(snaps) != MaxLabelValues+1 || len(vals) != MaxLabelValues+1 {
		t.Fatalf("%d histogram / %d counter series, want %d (+1 overflow)", len(snaps), len(vals), MaxLabelValues+1)
	}
	if snaps[OverflowLabel].Count != extra || vals[OverflowLabel] != extra {
		t.Fatalf("overflow holds %d / %d samples, want %d", snaps[OverflowLabel].Count, vals[OverflowLabel], extra)
	}
	if snaps["v000"].Count != 1 || vals["v000"] != 1 {
		t.Fatal("pre-cap value lost its own series")
	}
	capped := capLabelValues(pulled)
	if len(capped) != MaxLabelValues+1 || capped[OverflowLabel] != extra || capped["v000"] != 1 {
		t.Fatalf("pulled family not capped: %d series, overflow %v", len(capped), capped[OverflowLabel])
	}
}

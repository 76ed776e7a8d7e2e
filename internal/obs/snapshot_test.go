package obs

import "testing"

func TestHistSnapshotEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	s := h.Snapshot()
	if s.Total() != 0 || s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	h.Observe(3)
	if s := h.Snapshot(); s.Total() != 1 || s.Count != 1 || s.Sum != 3 {
		t.Fatalf("snapshot after one sample: %+v", s)
	}
}

func TestHistSnapshotSingleBucket(t *testing.T) {
	// One finite bound: everything lands in bucket 0 or the overflow.
	h := newHistogram([]float64{10})
	h.Observe(5)
	h.Observe(5)
	h.Observe(100) // overflow
	s := h.Snapshot()
	if s.Total() != 3 || s.Count != 3 {
		t.Fatalf("snapshot totals: %+v", s)
	}
	if s.Counts[0] != 2 || s.Counts[1] != 1 {
		t.Fatalf("bucket counts %v, want [2 1]", s.Counts)
	}
	// Median interpolates within [0,10); the p99 rank lands in the
	// overflow bucket and clamps to the highest finite bound.
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("single-bucket median = %v", q)
	}
	if q := s.Quantile(0.99); q != 10 {
		t.Fatalf("overflow quantile = %v, want clamp to 10", q)
	}
}

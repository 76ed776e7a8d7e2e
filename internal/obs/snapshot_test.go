package obs

import (
	"math"
	"testing"
)

func TestHistSnapshotEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	s := h.Snapshot()
	if s.Total() != 0 || s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	if f := s.FractionAbove(1); f != 0 {
		t.Fatalf("empty fraction-above = %v, want 0", f)
	}
	// Subtracting two empty snapshots stays empty.
	d := s.Sub(h.Snapshot())
	if d.Total() != 0 || d.Count != 0 {
		t.Fatalf("empty delta not zero: %+v", d)
	}
	// A zero-value prev (fresh window) yields the snapshot unchanged.
	h.Observe(3)
	d = h.Snapshot().Sub(HistSnapshot{})
	if d.Total() != 1 || d.Count != 1 || d.Sum != 3 {
		t.Fatalf("delta against zero prev: %+v", d)
	}
}

func TestHistSnapshotSingleBucket(t *testing.T) {
	// One finite bound: everything lands in bucket 0 or the overflow.
	h := NewHistogram([]float64{10})
	h.Observe(5)
	h.Observe(5)
	h.Observe(100) // overflow
	s := h.Snapshot()
	if s.Total() != 3 || s.Count != 3 {
		t.Fatalf("snapshot totals: %+v", s)
	}
	// Median interpolates within [0,10); the p99 rank lands in the
	// overflow bucket and clamps to the highest finite bound.
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("single-bucket median = %v", q)
	}
	if q := s.Quantile(0.99); q != 10 {
		t.Fatalf("overflow quantile = %v, want clamp to 10", q)
	}
	// The overflow sample is above any finite threshold.
	if f := s.FractionAbove(10); math.Abs(f-1.0/3.0) > 1e-9 {
		t.Fatalf("fraction above 10 = %v, want 1/3", f)
	}
}

func TestHistSnapshotSubWindows(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	prev := h.Snapshot()
	h.Observe(5)
	h.Observe(50)
	h.Observe(0.5)
	cur := h.Snapshot()
	d := cur.Sub(prev)
	if d.Total() != 3 || d.Count != 3 {
		t.Fatalf("window delta totals: %+v", d)
	}
	// The window holds {0.5, 5, 50}: two of three samples exceed 1.
	if f := d.FractionAbove(1); math.Abs(f-2.0/3.0) > 1e-9 {
		t.Fatalf("window fraction above 1 = %v, want 2/3", f)
	}
	if got, want := d.Sum, 55.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("window sum = %v, want %v", got, want)
	}
	// The cumulative quantile still matches the non-windowed accessor.
	if a, b := h.Snapshot().Quantile(0.9), cur.Quantile(0.9); a != b {
		t.Fatalf("Histogram.Quantile %v != Snapshot().Quantile %v", a, b)
	}
	// Mismatched subtraction clamps instead of going negative.
	neg := prev.Sub(cur)
	if neg.Total() != 0 || neg.Count != 0 {
		t.Fatalf("reverse delta not clamped: %+v", neg)
	}
}

package main

import (
	"math"
	"testing"
)

func TestBucketBoundsHoldValue(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 257, 1000, 123456789, 1 << 40, math.MaxUint64} {
		lo, hi := bucketBounds(bucketOf(v))
		if v < lo || (hi > lo && v >= hi && hi != 0) {
			t.Errorf("value %d in bucket [%d, %d)", v, lo, hi)
		}
		if v >= subBuckets && float64(hi-lo)/float64(lo) > 1.0/subBuckets+1e-12 {
			t.Errorf("bucket [%d, %d) wider than 1/%d of its values", lo, hi, subBuckets)
		}
	}
	if got := bucketOf(math.MaxUint64); got != numBuckets-1 {
		t.Errorf("largest value in bucket %d, want the last (%d)", got, numBuckets-1)
	}
}

func TestQuantileUniform(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 100000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, ok := h.Quantile(q, minBeyond)
		if !ok {
			t.Fatalf("q=%v not reported for 100000 samples", q)
		}
		want := q * 100000
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%v: got %.1f, want %.1f within 1%%", q, got, want)
		}
	}
}

func TestQuantileExactSmallValues(t *testing.T) {
	h := NewHist()
	for _, v := range []int64{3, 1, 2, 5, 4, -7} {
		h.Record(v)
	}
	// Sorted: 0 1 2 3 4 5; the nearest-rank median is the 3rd value.
	if got, ok := h.Quantile(0.5, 0); !ok || got != 2 {
		t.Errorf("median = %v, %v; want 2, true", got, ok)
	}
}

func TestQuantileNeedsSamplesBeyond(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	// p99 of 1000 samples has 10 beyond it: reported. p99.5 has 5: not.
	if _, ok := h.Quantile(0.99, 10); !ok {
		t.Error("p99 of 1000 samples should be reported with 10 beyond")
	}
	if _, ok := h.Quantile(0.995, 10); ok {
		t.Error("p99.5 of 1000 samples has only 5 beyond; want not reported")
	}
	if _, ok := NewHist().Quantile(0.5, 0); ok {
		t.Error("empty histogram reported a median")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	for v := int64(1); v <= 50; v++ {
		a.Record(v)
		b.Record(v + 50)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("count %d, want 100", a.Count())
	}
	if got, _ := a.Quantile(0.5, 0); got != 50 {
		t.Errorf("merged median %v, want 50", got)
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	h := NewHist()
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Errorf("Record allocates %v times per call", n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

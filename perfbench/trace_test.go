package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// SelfTimes is the reference the streaming Tracer is checked against. It
// computes per-name totals from a span list. A span's self time is its
// duration minus the union of its children's intervals, clipped to the
// span itself, so overlapping children (work on several goroutines) are
// not subtracted twice.
func SelfTimes(spans []Span) map[string]LayerTotal {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]LayerTotal)
	for i, s := range spans {
		dur := s.End - s.Start
		covered := unionLength(children[int32(i)], s.Start, s.End)
		lt := out[s.Name]
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered
		out[s.Name] = lt
	}
	return out
}

// unionLength returns the length of the union of ivs clipped to [lo, hi].
func unionLength(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range sorted {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func TestSelfTimesNested(t *testing.T) {
	// run [0,100) holds schedule [10,60) and schedule [60,90); the first
	// schedule holds a decision [20,25).
	spans := []Span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "schedule", Start: 10, End: 60, Parent: 0},
		{Name: "decide", Start: 20, End: 25, Parent: 1},
		{Name: "schedule", Start: 60, End: 90, Parent: 0},
	}
	got := SelfTimes(spans)
	want := map[string]LayerTotal{
		"run":      {Count: 1, Total: 100, Self: 20},
		"schedule": {Count: 2, Total: 80, Self: 75},
		"decide":   {Count: 1, Total: 5, Self: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %+v, want %+v", got, want)
	}
	var self int64
	for _, lt := range got {
		self += lt.Self
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's 100", self)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two children on different goroutines overlap in [30,50) and one runs
	// past the parent's end: only the covered part of [0,60) is subtracted.
	spans := []Span{
		{Name: "round", Start: 0, End: 60, Parent: -1},
		{Name: "worker", Start: 10, End: 50, Parent: 0},
		{Name: "worker", Start: 30, End: 70, Parent: 0},
	}
	if got := SelfTimes(spans)["round"].Self; got != 10 {
		t.Errorf("round self = %d, want 10", got)
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
		{[][2]int64{{2, 4}, {1, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{-5, 2}}, 0, 10, 2},
		{[][2]int64{{20, 30}}, 0, 10, 0},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("unionLength(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

// TestTracerMatchesSelfTimes checks the streaming aggregation against the
// span-list computation on a real nested recording.
func TestTracerMatchesSelfTimes(t *testing.T) {
	tr := NewTracer(64)
	tr.Begin("run", 0)
	for i := 0; i < 3; i++ {
		tr.Begin("schedule", 0)
		tr.Begin("decide", 0)
		tr.End()
		tr.End()
	}
	tr.End()
	if tr.dropped != 0 {
		t.Fatalf("dropped %d spans with room for 64", tr.dropped)
	}
	if got, want := tr.Totals(), SelfTimes(tr.spans); !reflect.DeepEqual(got, want) {
		t.Errorf("streaming totals %+v, span-list totals %+v", got, want)
	}
}

func TestTracerLeafCountsAgainstParent(t *testing.T) {
	tr := NewTracer(4)
	tr.Begin("harness", 0)
	tr.Leaf("decide", 7)
	tr.Leaf("decide", 3)
	dur := tr.End()
	tot := tr.Totals()
	if tot["decide"] != (LayerTotal{Count: 2, Total: 10, Self: 10}) {
		t.Errorf("leaf totals %+v", tot["decide"])
	}
	if h := tot["harness"]; h.Total != dur || h.Self != dur-10 {
		t.Errorf("harness total %d self %d, want %d and %d", h.Total, h.Self, dur, dur-10)
	}
}

func TestCPUTimeCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuTime()
	time.Sleep(50 * time.Millisecond)
	slept := cpuTime() - c0
	c0, w0 := cpuTime(), time.Now()
	x := uint64(1)
	for time.Since(w0) < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	worked := cpuTime() - c0
	if x == 0 || slept > 10*time.Millisecond || worked < 10*time.Millisecond {
		t.Errorf("CPU time over 50 ms asleep %v, over 50 ms of work %v", slept, worked)
	}
}

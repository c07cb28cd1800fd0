package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one recorded interval at a layer boundary. Times are nanoseconds
// since the tracer's base; Parent indexes the tracer's span list (-1 for a
// root) and Op identifies the workload op the span belongs to.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// LayerTotal aggregates the spans of one name: how many there were, their
// summed duration, and their summed self time (duration minus the part
// covered by child spans).
type LayerTotal struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// Tracer records spans in memory for one goroutine's nested calls. Coarse
// spans (Begin/End) are kept, up to a fixed cap, for the trace file; fine
// ones (Leaf, one per strategy decision) only add to the aggregates and to
// their parent's covered time. Every span, kept or not, feeds the per-name
// totals, which are computed as spans end: a span's children have all
// ended before it does, so its self time is known at its own End.
type Tracer struct {
	base   time.Time
	spans  []Span
	stack  []frame
	totals map[string]*LayerTotal
	// dropped counts coarse spans that ended after the kept list was full.
	dropped int64
}

type frame struct {
	name    string
	start   int64
	covered int64
	kept    int32 // index in spans, or -1
}

// NewTracer returns a tracer that keeps at most keep coarse spans.
func NewTracer(keep int) *Tracer {
	return &Tracer{
		base:   time.Now(),
		spans:  make([]Span, 0, keep),
		stack:  make([]frame, 0, 16),
		totals: make(map[string]*LayerTotal),
	}
}

// Now returns the tracer clock in nanoseconds.
func (t *Tracer) Now() int64 { return int64(time.Since(t.base)) }

func (t *Tracer) total(name string) *LayerTotal {
	lt := t.totals[name]
	if lt == nil {
		lt = &LayerTotal{}
		t.totals[name] = lt
	}
	return lt
}

// Begin opens a span nested in the innermost open one.
func (t *Tracer) Begin(name string, op int) {
	f := frame{name: name, start: t.Now(), kept: -1}
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		f.kept = int32(len(t.spans))
		t.spans = append(t.spans, Span{Name: name, Start: f.start, Parent: parent, Op: int32(op)})
	}
	t.stack = append(t.stack, f)
}

// End closes the innermost open span and returns its duration.
func (t *Tracer) End() int64 {
	end := t.Now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	if f.kept >= 0 {
		t.spans[f.kept].End = end
	} else {
		t.dropped++
	}
	lt := t.total(f.name)
	lt.Count++
	lt.Total += dur
	lt.Self += dur - f.covered
	if n := len(t.stack); n > 0 {
		t.stack[n-1].covered += dur
	}
	return dur
}

// Leaf accounts a finished child interval of the innermost open span
// without keeping it: a fine-grained span (one strategy decision) whose
// count would swamp the kept list.
func (t *Tracer) Leaf(name string, dur int64) {
	lt := t.total(name)
	lt.Count++
	lt.Total += dur
	lt.Self += dur
	if n := len(t.stack); n > 0 {
		t.stack[n-1].covered += dur
	}
}

// Add records a finished root span measured elsewhere, from timestamps
// taken on other goroutines; it has no children.
func (t *Tracer) Add(name string, start, end int64, op int) {
	t.Leaf(name, end-start)
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: -1, Op: int32(op)})
}

// Totals returns the per-name aggregates.
func (t *Tracer) Totals() map[string]LayerTotal {
	out := make(map[string]LayerTotal, len(t.totals))
	for k, v := range t.totals {
		out[k] = *v
	}
	return out
}

// WriteFile writes the kept spans, one JSON object per line, followed by
// one line per layer aggregate.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	names := make([]string, 0, len(t.totals))
	for k := range t.totals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rec := struct {
			Layer string `json:"layer"`
			LayerTotal
		}{k, *t.totals[k]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\": %d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

package main

import (
	"fmt"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// perLayer lists every per-layer metric a traced run reports, each with
// the workload and end-to-end metric it is expected to move (README.md has
// the full map). A traced run reports all of them; a layer its workload
// never enters reads 0.
var perLayer = []struct{ name, unit string }{
	{"psharp.testrt.ns_per_step", "ns"},           // table2-random ops_per_s, op_us; table2-dpor ops_per_s
	{"psharp.testrt.steps_per_schedule", "count"}, // table2-random allocs_per_op
	{"psharp.testrt.allocs_per_schedule", "count"},
	{"sct.random.ns_per_decision", "ns"}, // table2-random ops_per_s
	{"sct.random.decisions_per_schedule", "count"},
	{"sct.engine.ns_per_schedule", "ns"}, // table2-random ops_per_s
	{"sct.engine.run_setup_us", "us"},
	{"sct.dpor.ns_per_decision", "ns"}, // table2-dpor ops_per_s, op_us.p50
	{"sct.dpor.ns_per_observe", "ns"},
	{"psharp.statehash.ns_per_step", "ns"},      // table2-dpor ops_per_s
	{"sct.statecache.prune_ratio", "ratio"},     // table2-dpor ops_per_s
	{"sct.statecache.distinct_states", "count"}, // table2-dpor
	{"sct.schedules_to_bug", "count"},           // table2-* (exact count)
	{"psharp.monitor.ns_per_step", "ns"},        // table2-dpor op_us.p50
	{"sct.telemetry.ns_per_schedule", "ns"},     // table2-dpor op_us.p50
	{"psharp.runtime.send_ns", "ns"},            // runtime-scatter op_us, ops_per_s
	{"psharp.runtime.wake_ns", "ns"},
	{"psharp.runtime.fanout_ns", "ns"},
	{"psharp.runtime.cpu_util", "ratio"},
	{"interp.ns_per_step", "ns"}, // table1-psl ops_per_s, allocs_per_op
	{"interp.allocs_per_schedule", "count"},
	{"vclock.ns_per_step", "ns"}, // table1-psl ops_per_s
	{"lang.parse_ms", "ms"},      // table1-psl setup_s
	{"lang.check_ms", "ms"},
	{"analysis.analyze_ms", "ms"},
	{"bench.unattributed_ns_per_op", "ns"},
	{"bench.tracing_overhead_pct", "%"},
}

// setLayers reports every per-layer metric, 0 for those vals lacks.
func setLayers(o *outcome, vals map[string]float64) {
	known := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		known[m.name] = true
		o.set(m.name, vals[m.name], m.unit)
	}
	for k := range vals {
		if !known[k] {
			panic("perfbench: unlisted per-layer metric " + k)
		}
	}
}

// selfRow is one layer's self time per op in a traced run.
type selfRow struct {
	layer   string
	nsPerOp float64
}

// selfTable prints the per-op self time of every layer of a workload plus
// the unattributed remainder, which makes the rows add up to the traced
// per-op time exactly, and records the remainder as a metric.
func selfTable(o *outcome, vals map[string]float64, opNs float64, rows []selfRow) {
	o.linef("self time per op (traced per-op time %.1f ns):", opNs)
	sum := 0.0
	for _, r := range rows {
		sum += r.nsPerOp
		o.linef("  %-40s %14.1f ns  %6.2f%%", r.layer, r.nsPerOp, 100*r.nsPerOp/opNs)
	}
	rest := opNs - sum
	o.linef("  %-40s %14.1f ns  %6.2f%%", "unattributed", rest, 100*rest/opNs)
	vals["bench.unattributed_ns_per_op"] = rest
}

// overhead records the tracing overhead: traced against untraced per-op
// time over the same ops.
func overhead(o *outcome, vals map[string]float64, tracedNs, untracedNs float64) {
	pct := 100 * (tracedNs/untracedNs - 1)
	vals["bench.tracing_overhead_pct"] = pct
	o.linef("tracing overhead: traced %.1f ns/op vs untraced %.1f ns/op (%+.2f%%)", tracedNs, untracedNs, pct)
}

// timedStrategy wraps an sct strategy and accounts every decision as a leaf
// span named name. It implements only the three-method psharp.Strategy the
// wrapped Random and DPOR implement, so the controller drives it exactly as
// it drives them. onPrepare, when set, runs before each PrepareIteration.
type timedStrategy struct {
	inner     sct.Strategy
	tr        *Tracer
	name      string
	onPrepare func(iter int)
}

func (s *timedStrategy) PrepareIteration(iter int) bool {
	if s.onPrepare != nil {
		s.onPrepare(iter)
	}
	return s.inner.PrepareIteration(iter)
}

func (s *timedStrategy) NextMachine(cur psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	t0 := s.tr.Now()
	m := s.inner.NextMachine(cur, enabled)
	s.tr.Leaf(s.name, s.tr.Now()-t0)
	return m
}

func (s *timedStrategy) NextBool() bool {
	t0 := s.tr.Now()
	b := s.inner.NextBool()
	s.tr.Leaf(s.name, s.tr.Now()-t0)
	return b
}

func (s *timedStrategy) NextInt(n int) int {
	t0 := s.tr.Now()
	v := s.inner.NextInt(n)
	s.tr.Leaf(s.name, s.tr.Now()-t0)
	return v
}

// timedObserver is timedStrategy for a strategy that also observes step
// footprints (DPOR); ObserveStep is accounted as its own leaf.
type timedObserver struct {
	timedStrategy
	observer psharp.StepObserver
	observe  string
}

func (s *timedObserver) ObserveStep(op psharp.StepOp) {
	t0 := s.tr.Now()
	s.observer.ObserveStep(op)
	s.tr.Leaf(s.observe, s.tr.Now()-t0)
}

// neverPrune is a psharp.StateCache that makes the controller hash the
// global state at every scheduling point but never prunes, so a run with
// it explores exactly the schedules of a run without a cache.
type neverPrune struct{}

func (neverPrune) Visit(uint64, uint64, int) bool { return false }

// perOp divides safely, for per-op and per-step ratios.
func perOp(total float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return total / float64(n)
}

func nsPer(total int64, n int64) float64 { return perOp(float64(total), n) }

// describeBug renders a bug for comparison and reports.
func describeBug(b *psharp.Bug) string {
	if b == nil {
		return ""
	}
	return fmt.Sprintf("%s|%s|%s", b.Kind, b.Monitor, b.Message)
}

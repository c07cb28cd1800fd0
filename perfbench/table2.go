package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// protocol is one buggy Table 2 benchmark with its set-up closures built.
type protocol struct {
	name      string
	bench     protocols.Benchmark
	monitored func(*psharp.Runtime)
}

// buggyCorpus builds the eight buggy Table 2 protocols in table order.
func buggyCorpus() []protocol {
	var out []protocol
	for _, name := range protocols.Names() {
		b, ok := protocols.ByName(name, true)
		if !ok {
			continue
		}
		out = append(out, protocol{name: name, bench: b, monitored: b.SetupMonitored()})
	}
	return out
}

// randomQuota is the number of schedules each protocol contributes to one
// table2-random pass. Hunts run back to back until the quota is spent, the
// last one cut at the quota, so every pass holds exactly these schedules
// whatever the seed; the sizes give every protocol about the same wall time
// on the reference host (German's livelock schedules run to the depth
// bound and cost ~2.6 ms each, Chord's ~50 µs).
var randomQuota = map[string]int{
	"BoundedAsync": 250, "German": 16, "BasicPaxos": 250, "TwoPhaseCommit": 340,
	"Chord": 800, "MultiPaxos": 200, "Raft": 160, "ChainReplication": 240,
}

const (
	randomPassNominal = 330 * time.Millisecond
	// setupReps is how many times every workload repeats its set-up; the
	// reported setup_s is the median.
	setupReps = 5
	// randomSetupSchedules is the size of the set-up campaign per protocol;
	// it runs from setupSeed, so every run sets up the same work.
	randomSetupSchedules = 10
	setupSeed            = 0x5eed
)

// huntSpec is one random hunt: protocol index, strategy seed and budget.
type huntSpec struct {
	proto  int
	seed   uint64
	budget int
}

// huntResult is what a hunt's output checks look at.
type huntResult struct {
	spec      huntSpec
	rep       sct.Report
	latencies int
}

// schedClock turns the engine's per-schedule Progress snapshots into one
// time (CPU) and one wall latency per schedule. Progress fires after every
// schedule that neither was pruned nor stopped the run, so a hunt's last
// schedule runs from the last snapshot to the end of sct.Run (wall: the
// report's Elapsed); when the hunt ran out of budget instead, the remainder
// (engine teardown) is added to its last schedule. The first schedule
// carries the engine's set-up. reset must be called right before sct.Run.
type schedClock struct {
	t                   *Timed // nil: count only
	last                time.Duration
	lastCPU             time.Duration
	pending, pendingCPU int64
	has                 bool
	n                   int
}

func (c *schedClock) reset() {
	c.last, c.pending, c.pendingCPU, c.has, c.n = 0, 0, 0, false, 0
	c.lastCPU = cpuTime()
}

func (c *schedClock) progress(p sct.Progress) {
	cpu := cpuTime()
	if c.has {
		c.emit(c.pendingCPU, c.pending)
	}
	c.pending, c.last, c.has = int64(p.Elapsed-c.last), p.Elapsed, true
	c.pendingCPU, c.lastCPU = int64(cpu-c.lastCPU), cpu
}

func (c *schedClock) emit(cpuNs, wallNs int64) {
	c.n++
	if c.t != nil {
		c.t.record(cpuNs, wallNs)
	}
}

func (c *schedClock) finish(rep *sct.Report) {
	restCPU := int64(cpuTime() - c.lastCPU)
	rest := int64(rep.Elapsed - c.last)
	switch {
	case rep.BugFound():
		if c.has {
			c.emit(c.pendingCPU, c.pending)
		}
		c.emit(restCPU, rest)
	case c.has:
		c.emit(c.pendingCPU+restCPU, c.pending+rest)
	}
}

// hunter runs table2-random passes. Its Progress function is built once so
// the measuring loop allocates nothing of its own.
type hunter struct {
	corpus   []protocol
	clk      schedClock
	progress sct.ProgressFunc
}

func newHunter(corpus []protocol) *hunter {
	h := &hunter{corpus: corpus}
	h.progress = h.clk.progress
	return h
}

func (h *hunter) hunt(spec huntSpec, progress sct.ProgressFunc, strategy sct.Strategy) sct.Report {
	b := h.corpus[spec.proto].bench
	return sct.Run(b.Setup, sct.Options{
		Strategy:       strategy,
		Iterations:     spec.budget,
		MaxSteps:       b.MaxSteps,
		StopOnFirstBug: true,
		LivelockAsBug:  b.LivelockAsBug,
		Progress:       progress,
		ProgressEvery:  1,
	})
}

// pass runs one pass: for every protocol, hunts with seeds drawn from rng
// until the protocol's quota is spent. Each hunt is checked as it ends;
// visit, when non-nil, sees every hunt (it must not allocate inside a
// timed phase unless its slice has room).
func (h *hunter) pass(rng *splitmix, t *Timed, ck *checks, visit func(huntResult)) {
	h.clk.t = t
	for pi, p := range h.corpus {
		left := randomQuota[p.name]
		for left > 0 {
			spec := huntSpec{proto: pi, seed: rng.next(), budget: left}
			h.clk.reset()
			rep := h.hunt(spec, h.progress, sct.NewRandom(spec.seed))
			h.clk.finish(&rep)
			res := huntResult{spec: spec, rep: rep, latencies: h.clk.n}
			checkHunt(res, ck, p.name)
			if visit != nil {
				visit(res)
			}
			left -= rep.Iterations
		}
	}
}

// checkHunt checks one hunt: it found its protocol's bug unless it was the
// quota's last hunt and ran out of budget, it ran no more schedules than
// its budget, and every schedule got exactly one latency. A hunt cut at the
// quota is checked later, by checkCuts.
func checkHunt(r huntResult, ck *checks, name string) {
	rep := &r.rep
	if rep.Iterations < 1 || rep.Iterations > r.spec.budget {
		ck.fail("%s seed %d: %d schedules for a budget of %d", name, r.spec.seed, rep.Iterations, r.spec.budget)
	}
	if !rep.BugFound() && rep.Iterations < r.spec.budget {
		ck.fail("%s seed %d: hunt ended after %d of %d schedules without its bug", name, r.spec.seed, rep.Iterations, r.spec.budget)
	}
	if rep.BugFound() && (rep.FirstBugTrace == nil || rep.FirstBugIteration != rep.Iterations-1) {
		ck.fail("%s seed %d: bug at schedule %d of %d has no replayable trace", name, r.spec.seed, rep.FirstBugIteration, rep.Iterations)
	}
	if r.latencies != rep.Iterations {
		ck.fail("%s seed %d: %d latencies for %d schedules", name, r.spec.seed, r.latencies, rep.Iterations)
	}
}

// cutExtension is how many quotas a hunt cut at its quota may run on when
// checkCuts continues it. The worst protocol's median hunt (Raft, ~50
// schedules) fits its quota three times, so a hunt that still has no bug
// after ten more quotas means the tester lost the bug.
const cutExtension = 10

// shifted runs a strategy from schedule index from on. Random seeds every
// schedule from its seed and index alone, so a shifted Random continues a
// hunt where it stopped without repeating its schedules.
type shifted struct {
	sct.Strategy
	from int
}

func (s shifted) PrepareIteration(iter int) bool { return s.Strategy.PrepareIteration(s.from + iter) }

// checkCuts continues every hunt that was cut at its quota, past its cut
// schedules, and checks that it finds its bug. A quota whose hunts never
// find the bug thus fails the run. After a protocol's first failure its
// other cut hunts are skipped, which bounds the time a broken tester costs.
func (h *hunter) checkCuts(cuts []huntResult, ck *checks) {
	failed := make([]bool, len(h.corpus))
	for _, r := range cuts {
		if failed[r.spec.proto] {
			continue
		}
		name := h.corpus[r.spec.proto].name
		spec := huntSpec{proto: r.spec.proto, seed: r.spec.seed, budget: cutExtension * randomQuota[name]}
		cont := h.hunt(spec, nil, shifted{sct.NewRandom(spec.seed), r.rep.Iterations})
		if !cont.BugFound() {
			failed[r.spec.proto] = true
			ck.fail("%s seed %d: no bug in %d schedules, nor in %d more after them",
				name, r.spec.seed, r.rep.Iterations, cont.Iterations)
		}
	}
}

// checkReplay checks that replaying a hunt's first-bug trace reproduces
// the same bug kind, monitor and message.
func checkReplay(r huntResult, p protocol, ck *checks) {
	b := p.bench
	got := sct.ReplayTrace(b.Setup, r.rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug})
	if want, have := describeBug(r.rep.FirstBug), describeBug(got.Bug); want != have {
		ck.fail("%s seed %d: replay gave %q, hunt found %q", p.name, r.spec.seed, have, want)
	}
}

// stbCounter keeps schedules-to-bug per protocol in preallocated
// histograms: a search's schedules up to and including its first bug, a
// miss counted as the full budget.
type stbCounter []*Hist

func newSTB(n int) stbCounter {
	s := make(stbCounter, n)
	for i := range s {
		s[i] = NewHist()
	}
	return s
}

func (s stbCounter) add(proto, schedules int) { s[proto].Record(int64(schedules)) }

// median is the median over protocols of each protocol's median search.
func (s stbCounter) median() float64 {
	var per []float64
	for _, h := range s {
		if h.Count() == 0 {
			continue
		}
		v, _ := h.Quantile(0.5, 0)
		per = append(per, v)
	}
	return median(per)
}

func (s stbCounter) lines(o *outcome, corpus []protocol) {
	for i, h := range s {
		v, _ := h.Quantile(0.5, 0)
		o.linef("schedules_to_bug %-18s median %.0f over %d searches", corpus[i].name, v, h.Count())
	}
}

func runTable2Random(cfg config) (*outcome, error) {
	rng := splitmix{cfg.seed}
	var ck checks
	setup := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		c0 := cpuTime()
		for _, p := range buggyCorpus() {
			b := p.bench
			sct.Run(b.Setup, sct.Options{Strategy: sct.NewRandom(setupSeed), Iterations: randomSetupSchedules,
				MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug})
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
	}
	corpus := buggyCorpus()
	h := newHunter(corpus)
	h.pass(&rng, nil, &ck, nil) // warm-up

	total := 0
	for _, q := range randomQuota {
		total += q
	}
	passes := passesFor(cfg.seconds, randomPassNominal, 3)
	stb := newSTB(len(corpus))
	// Traces of the first timed pass are replayed after the phase; one
	// pass has at most one hunt per schedule.
	replays := make([]huntResult, 0, total)
	// A hunt without its bug was cut at its quota (checkHunt fails the
	// others); a pass cuts at most one hunt per protocol.
	cuts := make([]huntResult, 0, passes*len(corpus))
	visit := func(r huntResult) {
		if !r.rep.BugFound() {
			cuts = append(cuts, r)
		} else {
			stb.add(r.spec.proto, r.rep.Iterations)
			if len(replays) < cap(replays) {
				replays = append(replays, r)
			}
		}
	}
	t := startTimed(passes, cpuTime)
	for i := 0; i < passes; i++ {
		h.pass(&rng, t, &ck, visit)
		t.endPass()
		if i == 0 {
			replays = replays[:len(replays):len(replays)]
		}
	}
	t.stop()
	if t.ops != int64(passes*total) {
		ck.fail("timed phase ran %d schedules, want %d passes x %d", t.ops, passes, total)
	}
	for _, r := range replays {
		checkReplay(r, corpus[r.spec.proto], &ck)
	}
	h.checkCuts(cuts, &ck)

	o := &outcome{}
	if err := endToEnd(o, t, setup); err != nil {
		return nil, err
	}
	o.linef("replayed %d first-bug traces of the first timed pass; continued %d hunts cut at their quota", len(replays), len(cuts))
	stb.lines(o, corpus)
	o.linef("schedules_to_bug %.0f (median over protocols of per-protocol medians)", stb.median())
	finish(o, &ck)
	return o, nil
}

// traceTable2Random re-drives a slice of the table2-random op sequence
// three times: untraced (the overhead baseline), through sct.Run with a
// timed strategy (engine spans: run set-up and one span per schedule), and
// through a TestHarness with the same seeds and PrepareIteration(i) as the
// engine calls it (harness spans). The drill-down must reproduce every
// hunt's scheduling points and bug iteration exactly.
func traceTable2Random(cfg config) (*outcome, error) {
	rng := splitmix{cfg.seed}
	var ck checks
	corpus := buggyCorpus()
	h := newHunter(corpus)
	h.pass(&rng, nil, &ck, nil) // warm-up

	// The op list: the hunts of a few passes, fixed by running them once.
	passes := max(1, passesFor(cfg.seconds, randomPassNominal, 3)/4)
	var specs []huntSpec
	for i := 0; i < passes; i++ {
		h.pass(&rng, nil, &ck, func(r huntResult) { specs = append(specs, r.spec) })
	}

	// Every hunt then runs three ways back to back, so all three see the
	// same host speed: untraced (the overhead baseline), through sct.Run
	// with a timed strategy, and through a TestHarness.
	engine, harness := NewTracer(1<<16), NewTracer(1<<16)
	var schedules, points int64
	var tracedWall, untracedWall time.Duration
	var harnessAllocs uint64
	stb := newSTB(len(corpus))
	for op, spec := range specs {
		b := corpus[spec.proto].bench
		h.clk.t = nil
		t0 := time.Now()
		h.hunt(spec, h.progress, sct.NewRandom(spec.seed))
		untracedWall += time.Since(t0)

		// Engine view: sct.Run with the timed strategy.
		dec := &timedStrategy{inner: sct.NewRandom(spec.seed), tr: engine, name: "sct.random"}
		dec.onPrepare = func(int) {
			engine.End()
			engine.Begin("sct.schedule", op)
		}
		t0 = time.Now()
		engine.Begin("sct.Run", op)
		engine.Begin("sct.engine.setup", op)
		h.clk.reset()
		rep := h.hunt(spec, h.progress, dec)
		engine.End()
		engine.End()
		tracedWall += time.Since(t0)
		h.clk.finish(&rep)
		schedules += int64(rep.Iterations)
		if rep.BugFound() {
			stb.add(spec.proto, rep.Iterations)
		}

		// Harness view: the same seeds through TestHarness.Run.
		m0 := mallocs()
		hd := &timedStrategy{inner: sct.NewRandom(spec.seed), tr: harness, name: "sct.random"}
		th := psharp.NewTestHarness(b.Setup)
		run := psharp.TestConfig{Strategy: hd, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
		var sp int64
		bugAt := -1
		for i := 0; i < rep.Iterations; i++ {
			hd.PrepareIteration(i)
			harness.Begin("psharp.TestHarness.Run", op)
			res := th.Run(run)
			harness.End()
			sp += int64(res.SchedulingPoints)
			if res.Bug != nil {
				bugAt = i
				break
			}
		}
		th.Close()
		harnessAllocs += mallocs() - m0
		points += sp
		wantBug := -1
		if rep.BugFound() {
			wantBug = rep.FirstBugIteration
		}
		if sp != rep.TotalSchedulingPoints || bugAt != wantBug {
			ck.fail("%s seed %d: harness drill-down gave %d points, bug at %d; sct.Run %d points, bug at %d",
				corpus[spec.proto].name, spec.seed, sp, bugAt, rep.TotalSchedulingPoints, wantBug)
		}
	}
	et, ht := engine.Totals(), harness.Totals()
	tracedNs := float64(tracedWall.Nanoseconds()) / float64(schedules)
	untracedNs := float64(untracedWall.Nanoseconds()) / float64(schedules)

	vals := map[string]float64{}
	decide := ht["sct.random"]
	run := ht["psharp.TestHarness.Run"]
	engineNs := et["sct.engine.setup"].Total + et["sct.schedule"].Total - run.Total
	vals["psharp.testrt.ns_per_step"] = nsPer(run.Self, points)
	vals["psharp.testrt.steps_per_schedule"] = perOp(float64(points), schedules)
	vals["psharp.testrt.allocs_per_schedule"] = perOp(float64(harnessAllocs), schedules)
	vals["sct.random.ns_per_decision"] = nsPer(decide.Total, decide.Count)
	vals["sct.random.decisions_per_schedule"] = perOp(float64(decide.Count), schedules)
	vals["sct.engine.ns_per_schedule"] = nsPer(engineNs, schedules)
	vals["sct.engine.run_setup_us"] = nsPer(et["sct.engine.setup"].Total, et["sct.engine.setup"].Count) / 1e3
	vals["sct.schedules_to_bug"] = stb.median()

	o := &outcome{attempted: schedules}
	o.linef("drill-down: %d hunts, %d schedules, %d scheduling points (checked against Report.TotalSchedulingPoints)",
		len(specs), schedules, points)
	selfTable(o, vals, tracedNs, []selfRow{
		{"sct.random (decisions)", nsPer(decide.Self, schedules)},
		{"psharp.testrt (TestHarness.Run self)", nsPer(run.Self, schedules)},
		{"sct.engine (sct.Run minus harness)", nsPer(engineNs, schedules)},
	})
	overhead(o, vals, tracedNs, untracedNs)
	setLayers(o, vals)
	if err := writeTraces(cfg.traceOut, map[string]*Tracer{"engine": engine, "harness": harness}); err != nil {
		return nil, err
	}
	o.linef("spans written to %s", cfg.traceOut)
	finish(o, &ck)
	return o, nil
}

// dporBudgets is the attempt-budget ladder of table2-dpor: every pass runs
// one search per protocol and budget, so search times spread over a range
// instead of eight fixed values a percentile could fall between.
var dporBudgets = []int{30, 60, 90, 120}

const dporPassNominal = 800 * time.Millisecond

// dporSpec is one DPOR search.
type dporSpec struct {
	proto, budget int
}

// dporResult is the exact outcome of one search; DPOR is deterministic,
// so a search must give the same result every time it runs.
type dporResult struct {
	explored, pruned, states int
	points                   int64
	bug                      string
	firstBug                 int
}

func resultOf(rep *sct.Report) dporResult {
	r := dporResult{explored: rep.Iterations, pruned: rep.PrunedIterations, states: rep.DistinctStates,
		points: rep.TotalSchedulingPoints, bug: describeBug(rep.FirstBug), firstBug: -1}
	if rep.BugFound() {
		r.firstBug = rep.FirstBugIteration
	}
	return r
}

// schedulesToBug counts a search's attempts up to and including the first
// bug, or the whole budget on a miss.
func (r dporResult) schedulesToBug(budget int) int {
	if r.firstBug >= 0 {
		return r.firstBug + 1
	}
	return budget
}

// checkDPOR compares a search with the first run of the same search.
func checkDPOR(name string, spec dporSpec, first, got dporResult, ck *checks) {
	if first != got {
		ck.fail("%s budget %d: search gave %+v, earlier run of the same search %+v", name, spec.budget, got, first)
	}
}

// dporFinds names the protocols whose bug the DPOR search finds within the
// top budget of the ladder on this tree. A search that stops finding one
// fails the run, so a reduction that is faster because it is broken cannot
// pass for a gain.
var dporFinds = []string{"Chord", "MultiPaxos", "ChainReplication"}

// checkDPORFinds checks the top-budget search of every dporFinds protocol
// found a bug; ref holds every search's result.
func checkDPORFinds(corpus []protocol, ref map[dporSpec]dporResult, ck *checks) {
	top := dporBudgets[len(dporBudgets)-1]
	for pi, p := range corpus {
		if slices.Contains(dporFinds, p.name) && ref[dporSpec{pi, top}].firstBug < 0 {
			ck.fail("%s: DPOR search of %d attempts found no bug", p.name, top)
		}
	}
}

// dporLine renders one protocol's results over the budget ladder. The
// results do not depend on the seed, so the line goes out as an agree line
// that every process of a run must print alike.
func dporLine(name string, pi int, ref map[dporSpec]dporResult) string {
	parts := make([]string, 0, len(dporBudgets)+1)
	for _, b := range dporBudgets {
		r := ref[dporSpec{pi, b}]
		parts = append(parts, fmt.Sprintf("b%d:%d/%d/%d/%d@%d", b, r.explored, r.pruned, r.states, r.points, r.firstBug))
	}
	parts = append(parts, fmt.Sprintf("%q", ref[dporSpec{pi, dporBudgets[len(dporBudgets)-1]}].bug))
	return fmt.Sprintf("%sdpor %s %s", agreePrefix, name, strings.Join(parts, " "))
}

func dporSearch(p protocol, budget int, tel *sct.Telemetry) sct.Report {
	b := p.bench
	return sct.Run(p.monitored, sct.Options{
		Strategy:      sct.NewDPOR(),
		StateCache:    true,
		Telemetry:     tel,
		Iterations:    budget,
		MaxSteps:      b.MaxSteps,
		LivelockAsBug: b.LivelockAsBug,
	})
}

// dporPass is the op list of one pass in a seed-derived order.
func dporPass(corpus []protocol, rng *splitmix) []dporSpec {
	var ops []dporSpec
	for pi := range corpus {
		for _, b := range dporBudgets {
			ops = append(ops, dporSpec{pi, b})
		}
	}
	rng.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func runTable2DPOR(cfg config) (*outcome, error) {
	rng := splitmix{cfg.seed}
	var ck checks
	setup := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		c0 := cpuTime()
		for _, p := range buggyCorpus() {
			dporSearch(p, dporBudgets[0], sct.NewTelemetry(0))
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
	}
	corpus := buggyCorpus()
	// The warm-up pass records every search's reference result.
	ref := make(map[dporSpec]dporResult)
	for _, s := range dporPass(corpus, &rng) {
		rep := dporSearch(corpus[s.proto], s.budget, sct.NewTelemetry(0))
		ref[s] = resultOf(&rep)
	}

	passes := passesFor(cfg.seconds, dporPassNominal, 3)
	plans := make([][]dporSpec, passes)
	for i := range plans {
		plans[i] = dporPass(corpus, &rng)
	}
	stb := newSTB(len(corpus))
	t := startTimed(passes, cpuTime)
	for _, plan := range plans {
		for _, s := range plan {
			t0, c0 := time.Now(), cpuTime()
			rep := dporSearch(corpus[s.proto], s.budget, sct.NewTelemetry(0))
			t.record(int64(cpuTime()-c0), int64(time.Since(t0)))
			got := resultOf(&rep)
			checkDPOR(corpus[s.proto].name, s, ref[s], got, &ck)
			stb.add(s.proto, got.schedulesToBug(s.budget))
		}
		t.endPass()
	}
	t.stop()

	checkDPORFinds(corpus, ref, &ck)

	o := &outcome{}
	if err := endToEnd(o, t, setup); err != nil {
		return nil, err
	}
	o.linef("dpor results per budget, explored/pruned/distinct states/scheduling points@first bug, then the top budget's bug:")
	for pi, p := range corpus {
		o.linef("%s", dporLine(p.name, pi, ref))
	}
	stb.lines(o, corpus)
	o.linef("schedules_to_bug %.0f (median over protocols of per-protocol medians)", stb.median())
	finish(o, &ck)
	return o, nil
}

// traceTable2DPOR measures the DPOR campaign's layers. Each search of the
// plan runs once through sct.Run for the engine's counts (pruning ratio,
// distinct states, schedules to bug). The sct state cache is internal, so
// the drill-down cannot reproduce its pruning: it re-drives each search
// through a TestHarness with a cache that hashes every step but never
// prunes, and so reports per-step costs of DPOR, the harness and the state
// hash rather than a split of the engine's own search. Its self-time table
// is per drill-down search. The state hash, monitor and telemetry costs are
// differences of paired runs over the same schedules: with and without a
// never-pruning cache, with and without monitors, with and without a
// Telemetry.
func traceTable2DPOR(cfg config) (*outcome, error) {
	rng := splitmix{cfg.seed}
	var ck checks
	corpus := buggyCorpus()
	for _, s := range dporPass(corpus, &rng) { // warm-up
		dporSearch(corpus[s.proto], s.budget, sct.NewTelemetry(0))
	}
	plan := dporPass(corpus, &rng)

	// Every drill-down search runs twice back to back, so both see the same
	// host speed: with timed decisions and observations, and untimed (the
	// overhead baseline and the harness total the layer rows come from).
	harness := NewTracer(1 << 16)
	var tracedWall, untracedWall time.Duration
	var explored, pruned, states, steps, plainRunNs int64
	stb := newSTB(len(corpus))
	for op, s := range plan {
		p := corpus[s.proto]
		rep := dporSearch(p, s.budget, sct.NewTelemetry(0))
		eng := resultOf(&rep)
		stb.add(s.proto, eng.schedulesToBug(s.budget))
		explored += int64(eng.explored)
		pruned += int64(eng.pruned)
		states += int64(eng.states)

		var timed, plain dporResult
		var runNs int64
		timedRun := func() {
			t0 := time.Now()
			timed, _ = driveDPOR(p, s.budget, harness, op)
			tracedWall += time.Since(t0)
		}
		plainRun := func() {
			t0 := time.Now()
			plain, runNs = driveDPOR(p, s.budget, nil, op)
			untracedWall += time.Since(t0)
		}
		if op%2 == 0 {
			timedRun()
			plainRun()
		} else {
			plainRun()
			timedRun()
		}
		if timed != plain {
			ck.fail("%s budget %d: timed drill-down gave %+v, untimed %+v", p.name, s.budget, timed, plain)
		}
		steps += plain.points
		plainRunNs += runNs
	}
	ht := harness.Totals()
	searches := int64(len(plan))
	hashNs, hashSteps := pairedStepCost(corpus, &rng, true)
	monNs, monSteps := pairedStepCost(corpus, &rng, false)
	telNs := telemetryCost(corpus, plan)
	o := &outcome{attempted: searches}
	o.linef("state hash: %.1f ns/step over %d steps; monitors: %.1f ns/step over %d steps (paired Random runs)",
		hashNs, hashSteps, monNs, monSteps)
	o.linef("telemetry: %.1f ns per explored schedule (paired sct.Run searches)", telNs)
	o.linef("engine: %d searches, %d attempts (%d explored, %d pruned)", searches, explored+pruned, explored, pruned)

	decide, observe := ht["sct.dpor.decide"], ht["sct.dpor.observe"]
	// The drill-down hashes the state and feeds the monitors at every
	// scheduling point. The timed drill-down pays for its own clock reads;
	// the harness's rest is taken from the untimed one.
	hashTotal := hashNs * float64(steps)
	monTotal := monNs * float64(steps)
	restNs := float64(plainRunNs-decide.Total-observe.Total) - hashTotal - monTotal
	tracedNs := float64(tracedWall.Nanoseconds()) / float64(searches)

	vals := map[string]float64{
		"sct.dpor.ns_per_decision":       nsPer(decide.Total, decide.Count),
		"sct.dpor.ns_per_observe":        nsPer(observe.Total, observe.Count),
		"psharp.statehash.ns_per_step":   hashNs,
		"psharp.monitor.ns_per_step":     monNs,
		"sct.telemetry.ns_per_schedule":  telNs,
		"sct.statecache.prune_ratio":     perOp(float64(pruned), explored+pruned),
		"sct.statecache.distinct_states": perOp(float64(states), searches),
		"sct.schedules_to_bug":           stb.median(),
		"psharp.testrt.ns_per_step":      perOp(restNs, steps),
	}
	o.linef("drill-down: %d searches without pruning, %d scheduling points; it cannot reproduce the engine's state-cache pruning, so its rows are per-step costs times its own steps",
		searches, steps)
	selfTable(o, vals, tracedNs, []selfRow{
		{"sct.dpor (decide + observe)", perOp(float64(decide.Total+observe.Total), searches)},
		{"psharp.statehash", perOp(hashTotal, searches)},
		{"psharp.monitor", perOp(monTotal, searches)},
		{"psharp.testrt (harness rest)", perOp(restNs, searches)},
	})
	overhead(o, vals, tracedNs, float64(untracedWall.Nanoseconds())/float64(searches))
	setLayers(o, vals)
	if err := writeTraces(cfg.traceOut, map[string]*Tracer{"harness": harness}); err != nil {
		return nil, err
	}
	o.linef("spans written to %s", cfg.traceOut)
	finish(o, &ck)
	return o, nil
}

// driveDPOR runs one DPOR search through a TestHarness as the engine does:
// PrepareIteration(i) before each attempt, the monitored program and a
// telemetry coverage set. Its cache hashes the global state at every step
// but never prunes, so every attempt runs to its end. With a tracer,
// decisions and observations are leaf spans inside one span per attempt;
// with nil, nothing but the attempts is timed. It also returns the summed
// time of the TestHarness.Run calls.
func driveDPOR(p protocol, budget int, tr *Tracer, op int) (dporResult, int64) {
	b := p.bench
	d := sct.NewDPOR()
	var strategy psharp.Strategy = d
	if tr != nil {
		strategy = &timedObserver{timedStrategy: timedStrategy{inner: d, tr: tr, name: "sct.dpor.decide"},
			observer: d, observe: "sct.dpor.observe"}
	}
	h := psharp.NewTestHarness(p.monitored)
	defer h.Close()
	run := psharp.TestConfig{Strategy: strategy, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug,
		StateCache: neverPrune{}, Coverage: sct.NewTelemetry(0).Coverage()}
	r := dporResult{firstBug: -1}
	var runNs int64
	for i := 0; i < budget; i++ {
		if !d.PrepareIteration(i) {
			break
		}
		var res psharp.IterationResult
		if tr != nil {
			tr.Begin("psharp.TestHarness.Run", op)
			res = h.Run(run)
			runNs += tr.End()
		} else {
			t0 := time.Now()
			res = h.Run(run)
			runNs += int64(time.Since(t0))
		}
		r.explored++
		r.points += int64(res.SchedulingPoints)
		if res.Bug != nil && r.firstBug < 0 {
			r.firstBug, r.bug = i, describeBug(res.Bug)
		}
	}
	return r, runNs
}

// pairedStepCost measures a per-scheduling-point cost as the difference of
// two runs of the same Random schedules through a TestHarness: with a
// never-pruning state cache against without (hash), or the monitored
// program against the plain one (monitors). The two sides alternate over
// several rounds; the result is the median per-step difference.
func pairedStepCost(corpus []protocol, rng *splitmix, hash bool) (float64, int64) {
	const rounds, perProto = 7, 20
	seeds := make([]uint64, len(corpus))
	for i := range seeds {
		seeds[i] = rng.next()
	}
	side := func(with bool) (time.Duration, int64) {
		var wall time.Duration
		var steps int64
		for pi, p := range corpus {
			b := p.bench
			setup := p.monitored
			run := psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
			if hash && with {
				run.StateCache = neverPrune{}
			}
			if !hash && !with {
				setup = b.Setup
			}
			s := sct.NewRandom(seeds[pi])
			run.Strategy = s
			h := psharp.NewTestHarness(setup)
			t0 := time.Now()
			for i := 0; i < perProto; i++ {
				s.PrepareIteration(i)
				steps += int64(h.Run(run).SchedulingPoints)
			}
			wall += time.Since(t0)
			h.Close()
		}
		return wall, steps
	}
	side(true)
	side(false)
	diffs := make([]float64, 0, rounds)
	var steps int64
	for r := 0; r < rounds; r++ {
		var with, without time.Duration
		var n int64
		if r%2 == 0 {
			with, n = side(true)
			without, _ = side(false)
		} else {
			without, _ = side(false)
			with, n = side(true)
		}
		steps = n
		diffs = append(diffs, float64((with-without).Nanoseconds())/float64(n))
	}
	return median(diffs), steps
}

// telemetryCost is the per-explored-schedule cost of attaching a Telemetry
// to the DPOR searches of plan: paired sct.Run passes with and without one,
// alternating, median difference.
func telemetryCost(corpus []protocol, plan []dporSpec) float64 {
	const rounds = 3
	side := func(tel bool) (time.Duration, int64) {
		var wall time.Duration
		var explored int64
		for _, s := range plan {
			var t *sct.Telemetry
			if tel {
				t = sct.NewTelemetry(0)
			}
			t0 := time.Now()
			rep := dporSearch(corpus[s.proto], s.budget, t)
			wall += time.Since(t0)
			explored += int64(rep.Iterations)
		}
		return wall, explored
	}
	diffs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var with, without time.Duration
		var n int64
		if r%2 == 0 {
			with, n = side(true)
			without, _ = side(false)
		} else {
			without, _ = side(false)
			with, n = side(true)
		}
		diffs = append(diffs, float64((with-without).Nanoseconds())/float64(n))
	}
	return median(diffs)
}

// writeTraces writes each phase tracer's spans to path, phase-tagged.
func writeTraces(path string, phases map[string]*Tracer) error {
	for name, tr := range phases {
		if err := tr.WriteFile(fmt.Sprintf("%s.%s", path, name)); err != nil {
			return err
		}
	}
	return nil
}

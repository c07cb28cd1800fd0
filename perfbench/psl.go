package main

import (
	"fmt"
	"reflect"
	"time"

	"github.com/psharp-go/psharp/analysis"
	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/interp"
	"github.com/psharp-go/psharp/lang"
	"github.com/psharp-go/psharp/obs"
)

// table1-psl: the paper's Table 1 pipeline on the 13 embedded non-racy
// programs. Set-up is the Table 1 analysis plus the first (compiling) run;
// an op is one interp.Run on the bytecode VM with the race detector on and
// a shared coverage set, as psharp-test -psl runs it.

const (
	// pslSeedsPerProgram is each program's runs per pass.
	pslSeedsPerProgram = 200
	pslPassNominal     = 95 * time.Millisecond
	// pslWalkSample is how many runs per program and pass are re-run on
	// the tree-walking engine and compared outcome for outcome.
	pslWalkSample = 2
)

// pslProgram is one loaded corpus program.
type pslProgram struct {
	bench benchsrc.Benchmark
	prog  *lang.Program
	main  string
}

// pslStageTimes is one set-up pass's time per stage.
type pslStageTimes struct {
	parse, check, analyze, compile time.Duration
}

// loadCorpus runs the Table 1 pipeline once: parse, check and analyze
// (with xSA) every program, then run it once, which compiles it. It checks
// the false-positive counts against the roster.
func loadCorpus(ck *checks) ([]pslProgram, pslStageTimes, error) {
	var st pslStageTimes
	var out []pslProgram
	for _, b := range benchsrc.All() {
		src, err := benchsrc.RawSource(b.Name, false)
		if err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		prog, err := lang.Parse(src)
		t1 := time.Now()
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", b.Name, err)
		}
		if err := lang.Check(prog); err != nil {
			return nil, st, fmt.Errorf("%s: %w", b.Name, err)
		}
		t2 := time.Now()
		res := analysis.Analyze(prog, analysis.Options{XSA: true})
		t3 := time.Now()
		main := prog.Machines[0].Name
		interp.Run(prog, main, interp.Options{Seed: setupSeed, RaceDetect: true})
		t4 := time.Now()
		st.parse += t1.Sub(t0)
		st.check += t2.Sub(t1)
		st.analyze += t3.Sub(t2)
		st.compile += t4.Sub(t3)
		checkFPs(b, len(res.BaseViolations), len(res.Violations), ck)
		out = append(out, pslProgram{bench: b, prog: prog, main: main})
	}
	return out, st, nil
}

// checkFPs compares the analysis' false-positive counts with the roster.
func checkFPs(b benchsrc.Benchmark, noXSA, xsa int, ck *checks) {
	if noXSA != b.FPsNoXSA || xsa != b.FPsXSA {
		ck.fail("%s: analysis reports %d/%d false positives without/with xSA, roster says %d/%d",
			b.Name, noXSA, xsa, b.FPsNoXSA, b.FPsXSA)
	}
}

// checkEngines compares a bytecode outcome with the tree-walker's for the
// same program and seed.
func checkEngines(name string, seed uint64, vm, walk interp.Outcome, ck *checks) {
	if !sameOutcome(vm, walk) {
		ck.fail("%s seed %d: bytecode %+v, tree-walker %+v", name, seed, vm, walk)
	}
}

func sameOutcome(a, b interp.Outcome) bool {
	errString := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	return a.Steps == b.Steps && a.Quiescent == b.Quiescent && a.BoundReached == b.BoundReached &&
		reflect.DeepEqual(a.Races, b.Races) && reflect.DeepEqual(a.HotMonitors, b.HotMonitors) &&
		errString(a.Err) == errString(b.Err)
}

// pslOp is one run of the op sequence.
type pslOp struct {
	prog int
	seed uint64
}

// pslPass fills ops with one pass: every program with pslSeedsPerProgram
// seeds drawn from rng, programs interleaved in a seed-derived order.
func pslPass(ops []pslOp, n int, rng *splitmix) []pslOp {
	ops = ops[:0]
	for p := 0; p < n; p++ {
		for k := 0; k < pslSeedsPerProgram; k++ {
			ops = append(ops, pslOp{p, rng.next()})
		}
	}
	rng.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func runPSLOp(corpus []pslProgram, op pslOp, cov *obs.StateEventCoverage, race bool) interp.Outcome {
	p := &corpus[op.prog]
	return interp.Run(p.prog, p.main, interp.Options{Seed: op.seed, RaceDetect: race, Coverage: cov})
}

func runPSL(cfg config) (*outcome, error) {
	rng := splitmix{cfg.seed}
	var ck checks
	setup := make([]float64, 0, setupReps)
	var corpus []pslProgram
	for r := 0; r < setupReps; r++ {
		c0 := cpuTime()
		c, _, err := loadCorpus(&ck)
		if err != nil {
			return nil, err
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
		corpus = c
	}
	var cov obs.StateEventCoverage
	plan := make([]pslOp, 0, len(corpus)*pslSeedsPerProgram)
	for _, op := range pslPass(plan, len(corpus), &rng) { // warm-up
		runPSLOp(corpus, op, &cov, true)
	}

	passes := passesFor(cfg.seconds, pslPassNominal, 3)
	// The first pslWalkSample runs of every program in every pass are
	// kept for the engine comparison.
	type sample struct {
		op  pslOp
		out interp.Outcome
	}
	samples := make([]sample, 0, passes*len(corpus)*pslWalkSample)
	taken := make([]int, len(corpus))
	t := startTimed(passes, cpuTime)
	for i := 0; i < passes; i++ {
		plan = pslPass(plan, len(corpus), &rng)
		clear(taken)
		for _, op := range plan {
			t0, c0 := time.Now(), cpuTime()
			out := runPSLOp(corpus, op, &cov, true)
			t.record(int64(cpuTime()-c0), int64(time.Since(t0)))
			if taken[op.prog] < pslWalkSample {
				taken[op.prog]++
				samples = append(samples, sample{op, out})
			}
			if out.Err != nil {
				ck.fail("%s seed %d: %v", corpus[op.prog].bench.Name, op.seed, out.Err)
			}
		}
		t.endPass()
	}
	t.stop()
	for _, s := range samples {
		p := &corpus[s.op.prog]
		walk := interp.Run(p.prog, p.main, interp.Options{Engine: interp.EngineWalk, Seed: s.op.seed, RaceDetect: true})
		checkEngines(p.bench.Name, s.op.seed, s.out, walk, &ck)
	}

	o := &outcome{}
	if err := endToEnd(o, t, setup); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range corpus {
		total += interp.DeclaredTransitions(p.prog)
	}
	o.linef("%d programs x %d seeds per pass; %d/%d transitions covered; %d runs compared with the tree-walker",
		len(corpus), pslSeedsPerProgram, cov.Distinct(), total, len(samples))
	finish(o, &ck)
	return o, nil
}

// tracePSL measures the set-up stages (per corpus pass) and the run's
// layers. Every pass of ops runs three times: untraced with the race
// detector on and off, alternating which goes first, for the vclock cost
// and the untraced baseline; then traced, with one interp.Run span per op.
func tracePSL(cfg config) (*outcome, error) {
	rng := splitmix{cfg.seed}
	var ck checks
	var parse, check, analyze, compile []float64
	var corpus []pslProgram
	for r := 0; r < setupReps; r++ {
		c, st, err := loadCorpus(&ck)
		if err != nil {
			return nil, err
		}
		corpus = c
		parse = append(parse, st.parse.Seconds()*1e3)
		check = append(check, st.check.Seconds()*1e3)
		analyze = append(analyze, st.analyze.Seconds()*1e3)
		compile = append(compile, st.compile.Seconds()*1e3)
	}
	var cov obs.StateEventCoverage
	for _, op := range pslPass(nil, len(corpus), &rng) { // warm-up
		runPSLOp(corpus, op, &cov, true)
	}
	passes := max(2, passesFor(cfg.seconds, pslPassNominal, 3)/4)
	plans := make([][]pslOp, passes)
	for i := range plans {
		plans[i] = pslPass(nil, len(corpus), &rng)
	}

	tr := NewTracer(1 << 16)
	var onWall, offWall, tracedWall time.Duration
	var ops, steps int64
	var allocs uint64
	for i, plan := range plans {
		on := func() {
			m0 := mallocs()
			t0 := time.Now()
			for _, op := range plan {
				runPSLOp(corpus, op, &cov, true)
			}
			onWall += time.Since(t0)
			allocs += mallocs() - m0
		}
		off := func() {
			t0 := time.Now()
			for _, op := range plan {
				runPSLOp(corpus, op, &cov, false)
			}
			offWall += time.Since(t0)
		}
		if i%2 == 0 {
			on()
			off()
		} else {
			off()
			on()
		}
		t0 := time.Now()
		for j, op := range plan {
			tr.Begin("interp.Run", j)
			out := runPSLOp(corpus, op, &cov, true)
			tr.End()
			steps += int64(out.Steps)
		}
		tracedWall += time.Since(t0)
		ops += int64(len(plan))
	}
	run := tr.Totals()["interp.Run"]
	tracedNs := float64(tracedWall.Nanoseconds()) / float64(ops)
	vclockNs := float64((onWall - offWall).Nanoseconds())

	vals := map[string]float64{
		"interp.ns_per_step":         nsPer(run.Total, steps),
		"interp.allocs_per_schedule": perOp(float64(allocs), ops),
		"vclock.ns_per_step":         perOp(vclockNs, steps),
		"lang.parse_ms":              median(parse),
		"lang.check_ms":              median(check),
		"analysis.analyze_ms":        median(analyze),
	}
	o := &outcome{attempted: ops}
	o.linef("set-up stages per corpus pass (median of %d): parse %.3f ms, check %.3f ms, analyze %.3f ms, first run + compile %.3f ms",
		setupReps, median(parse), median(check), median(analyze), median(compile))
	o.linef("drill-down: %d runs, %d steps", ops, steps)
	selfTable(o, vals, tracedNs, []selfRow{
		{"vclock (race detector on minus off)", perOp(vclockNs, ops)},
		{"interp (interp.Run minus vclock)", perOp(float64(run.Total)-vclockNs, ops)},
	})
	overhead(o, vals, tracedNs, float64(onWall.Nanoseconds())/float64(ops))
	setLayers(o, vals)
	if err := writeTraces(cfg.traceOut, map[string]*Tracer{"runs": tr}); err != nil {
		return nil, err
	}
	o.linef("spans written to %s", cfg.traceOut)
	finish(o, &ck)
	return o, nil
}

package main

import (
	"errors"
	"slices"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/interp"
	"github.com/psharp-go/psharp/sct"
)

// realHunt runs one table2-random hunt on ChainReplication, whose bug
// shows up in almost every schedule.
func realHunt(t *testing.T) (huntResult, protocol) {
	t.Helper()
	var p protocol
	for _, c := range buggyCorpus() {
		if c.name == "ChainReplication" {
			p = c
		}
	}
	h := newHunter([]protocol{p})
	spec := huntSpec{proto: 0, seed: 7, budget: 100}
	h.clk.reset()
	rep := h.hunt(spec, h.progress, sct.NewRandom(spec.seed))
	h.clk.finish(&rep)
	if !rep.BugFound() {
		t.Fatal("ChainReplication hunt found no bug in 100 schedules")
	}
	return huntResult{spec: spec, rep: rep, latencies: h.clk.n}, p
}

func TestCheckHuntFlagsCorruption(t *testing.T) {
	good, p := realHunt(t)
	var ck checks
	checkHunt(good, &ck, p.name)
	checkReplay(good, p, &ck)
	if ck.failed != 0 {
		t.Fatalf("clean hunt flagged: %v", ck.notes)
	}

	noBug := good
	noBug.rep.FirstBug = nil
	lost := good
	lost.latencies--
	for name, r := range map[string]huntResult{"missing bug": noBug, "lost latency": lost} {
		ck = checks{}
		checkHunt(r, &ck, p.name)
		if ck.failed == 0 {
			t.Errorf("%s not flagged", name)
		}
	}

	// A quota in which no hunt finds the bug: the correct ChainReplication
	// variant, whose every hunt is cut at the quota and never finds a bug
	// when continued.
	fixed, ok := protocols.ByName("ChainReplication", false)
	if !ok {
		t.Fatal("no correct ChainReplication")
	}
	h := newHunter([]protocol{{name: "ChainReplication", bench: fixed}})
	var cuts []huntResult
	ck = checks{}
	h.pass(&splitmix{3}, nil, &ck, func(r huntResult) {
		if !r.rep.BugFound() {
			cuts = append(cuts, r)
		}
	})
	if ck.failed != 0 || len(cuts) != 1 {
		t.Fatalf("correct-variant pass: %d failures %v, %d cut hunts", ck.failed, ck.notes, len(cuts))
	}
	h.checkCuts(cuts, &ck)
	if ck.failed == 0 {
		t.Error("quota without its bug not flagged")
	}

	// A hunt cut before its bug passes once continued.
	cut, tpc := cutHunt(t, "TwoPhaseCommit")
	ck = checks{}
	newHunter([]protocol{tpc}).checkCuts([]huntResult{cut}, &ck)
	if ck.failed != 0 {
		t.Fatalf("clean cut hunt flagged: %v", ck.notes)
	}

	wrong := good
	bug := *good.rep.FirstBug
	bug.Message += " (corrupted)"
	wrong.rep.FirstBug = &bug
	ck = checks{}
	checkReplay(wrong, p, &ck)
	if ck.failed == 0 {
		t.Error("replay of a hunt whose recorded bug message differs was not flagged")
	}
}

// cutHunt returns a one-schedule hunt on the named buggy protocol that
// ends without its bug, as the last hunt of a quota does.
func cutHunt(t *testing.T, name string) (huntResult, protocol) {
	t.Helper()
	var p protocol
	for _, c := range buggyCorpus() {
		if c.name == name {
			p = c
		}
	}
	h := newHunter([]protocol{p})
	for seed := uint64(1); seed < 100; seed++ {
		spec := huntSpec{proto: 0, seed: seed, budget: 1}
		rep := h.hunt(spec, nil, sct.NewRandom(seed))
		if !rep.BugFound() {
			return huntResult{spec: spec, rep: rep, latencies: rep.Iterations}, p
		}
	}
	t.Fatalf("every first %s schedule found the bug", name)
	return huntResult{}, p
}

func TestCheckDPORFlagsCorruption(t *testing.T) {
	p := buggyCorpus()[0]
	rep := dporSearch(p, 10, sct.NewTelemetry(0))
	first := resultOf(&rep)
	var ck checks
	again := dporSearch(p, 10, sct.NewTelemetry(0))
	checkDPOR(p.name, dporSpec{0, 10}, first, resultOf(&again), &ck)
	if ck.failed != 0 {
		t.Fatalf("identical searches flagged: %v", ck.notes)
	}
	bad := first
	bad.pruned++
	checkDPOR(p.name, dporSpec{0, 10}, first, bad, &ck)
	if ck.failed != 1 {
		t.Error("search with a different pruned count not flagged")
	}

	corpus := buggyCorpus()
	top := dporBudgets[len(dporBudgets)-1]
	ref := map[dporSpec]dporResult{}
	for pi, p := range corpus {
		if slices.Contains(dporFinds, p.name) {
			rep := dporSearch(p, top, sct.NewTelemetry(0))
			ref[dporSpec{pi, top}] = resultOf(&rep)
		}
	}
	ck = checks{}
	checkDPORFinds(corpus, ref, &ck)
	if ck.failed != 0 {
		t.Fatalf("DPOR searches of this tree flagged: %v", ck.notes)
	}
	for spec, r := range ref {
		r.firstBug, r.bug = -1, ""
		ref[spec] = r
		break
	}
	checkDPORFinds(corpus, ref, &ck)
	if ck.failed != 1 {
		t.Error("DPOR search that lost its bug not flagged")
	}
}

func TestDisagreements(t *testing.T) {
	same := []string{"agree: a", "agree: b"}
	if d := disagreements([][]string{same, same, same}); len(d) != 0 {
		t.Fatalf("equal processes flagged: %v", d)
	}
	if d := disagreements([][]string{same, {"agree: a", "agree: c"}, same, {"agree: a"}}); len(d) != 2 {
		t.Errorf("got %d disagreements, want 2: %v", len(d), d)
	}
}

func TestDriveDPORTimedMatchesPlain(t *testing.T) {
	p := buggyCorpus()[3]
	got, _ := driveDPOR(p, 40, NewTracer(16), 0)
	plain, _ := driveDPOR(p, 40, nil, 0)
	if got != plain || got.pruned != 0 || got.explored == 0 {
		t.Errorf("timed drill-down %+v, untimed %+v", got, plain)
	}
}

func TestCheckScatterFlagsCorruption(t *testing.T) {
	s, err := buildScatter(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.rt.Stop()
	stats := make([]clientStats, 2)
	s.pass(clientRNGs(3, 2), 50, stats, nil)
	if err := s.rt.Wait(); err != nil {
		t.Fatal(err)
	}
	var ck checks
	checkScatter(100, s.handled(), s.rt.Failure(), stats, &ck)
	if ck.failed != 0 {
		t.Fatalf("clean scatter flagged: %v", ck.notes)
	}
	cases := map[string]func() checks{
		"lost event": func() (c checks) { checkScatter(100, s.handled()-1, nil, stats, &c); return },
		"runtime failure": func() (c checks) {
			checkScatter(100, s.handled(), &psharp.Bug{Kind: psharp.BugAssertion, Message: "x"}, stats, &c)
			return
		},
		"wrong sum": func() (c checks) {
			bad := append([]clientStats(nil), stats...)
			bad[1].wrong = 1
			checkScatter(100, s.handled(), nil, bad, &c)
			return
		},
	}
	for name, f := range cases {
		if c := f(); c.failed == 0 {
			t.Errorf("%s not flagged", name)
		}
	}
}

func TestCheckPSLFlagsCorruption(t *testing.T) {
	var ck checks
	corpus, _, err := loadCorpus(&ck)
	if err != nil {
		t.Fatal(err)
	}
	if ck.failed != 0 {
		t.Fatalf("roster false-positive counts flagged: %v", ck.notes)
	}
	b := corpus[0].bench
	checkFPs(b, b.FPsNoXSA, b.FPsXSA+1, &ck)
	if ck.failed != 1 {
		t.Error("wrong xSA false-positive count not flagged")
	}

	p := corpus[1]
	vm := interp.Run(p.prog, p.main, interp.Options{Seed: 9, RaceDetect: true})
	walk := interp.Run(p.prog, p.main, interp.Options{Engine: interp.EngineWalk, Seed: 9, RaceDetect: true})
	ck = checks{}
	checkEngines(p.bench.Name, 9, vm, walk, &ck)
	if ck.failed != 0 {
		t.Fatalf("identical engines flagged: %v", ck.notes)
	}
	for name, mut := range map[string]func(o *interp.Outcome){
		"steps": func(o *interp.Outcome) { o.Steps++ },
		"error": func(o *interp.Outcome) { o.Err = errors.New("assertion failed") },
		"races": func(o *interp.Outcome) { o.Races = append(o.Races, "phantom race") },
	} {
		bad := walk
		bad.Races = append([]string(nil), walk.Races...)
		mut(&bad)
		ck = checks{}
		checkEngines(p.bench.Name, 9, vm, bad, &ck)
		if ck.failed == 0 {
			t.Errorf("corrupted %s not flagged", name)
		}
	}
}

func TestShiftedContinuesHunt(t *testing.T) {
	cut, tpc := cutHunt(t, "TwoPhaseCommit")
	h := newHunter([]protocol{tpc})
	spec := huntSpec{proto: 0, seed: cut.spec.seed, budget: 5000}
	whole := h.hunt(spec, nil, sct.NewRandom(spec.seed))
	if !whole.BugFound() || whole.FirstBugIteration < 1 {
		t.Fatalf("hunt from schedule 0: bug found %v at %d", whole.BugFound(), whole.FirstBugIteration)
	}
	rest := h.hunt(spec, nil, shifted{sct.NewRandom(spec.seed), 1})
	if !rest.BugFound() || rest.FirstBugIteration != whole.FirstBugIteration-1 ||
		describeBug(rest.FirstBug) != describeBug(whole.FirstBug) {
		t.Errorf("hunt shifted by one schedule found %q at %d; unshifted %q at %d",
			describeBug(rest.FirstBug), rest.FirstBugIteration, describeBug(whole.FirstBug), whole.FirstBugIteration)
	}
}

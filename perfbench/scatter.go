package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/psharp-go/psharp"
)

// runtime-scatter: a closed loop over the production runtime. Each client
// goroutine drives its own coordinator machine; a round is one external
// SendEvent to the coordinator, which scatters a request to each of the
// shared worker machines and, when all replies are in, signals the client.

const (
	scatterWorkers = 8
	// scatterRounds is one client's rounds per pass.
	scatterRounds       = 5000
	scatterPassNominal  = 150 * time.Millisecond
	scatterSetupBuilds  = 100
	scatterEventsPerRnd = 2*scatterWorkers + 1
)

type evStart struct {
	psharp.EventBase
	round int
	x     uint64
}

type evReq struct {
	psharp.EventBase
	from   psharp.MachineID
	client int
	round  int
	idx    int
	x      uint64
	tr     *scatterTrace // non-nil: stamp the handler entry
}

type evReply struct {
	psharp.EventBase
	v uint64
}

// coordConfig is a coordinator's creation payload.
type coordConfig struct {
	psharp.EventBase
	client  int
	workers []psharp.MachineID
	done    chan uint64
	tr      *scatterTrace
}

// workerValue is the reply a worker computes for input x; the client checks
// the round's sum against it.
func workerValue(x uint64, idx int) uint64 { return x*uint64(2*idx+1) + uint64(idx) }

func expectedSum(x uint64) uint64 {
	var s uint64
	for i := 0; i < scatterWorkers; i++ {
		s += workerValue(x, i)
	}
	return s
}

// roundStamps are the traced timestamps of one round, in tracer ns.
type roundStamps struct {
	send0, send1   int64 // client: around SendEvent
	start, scatter int64 // coordinator: Start handler entry and exit
	gather         int64 // coordinator: last reply handler entry
	woke           int64 // client: after the done signal
	fanSend        [scatterWorkers]int64
	fanRecv        [scatterWorkers]int64
}

// scatterTrace holds the stamps of every traced round, per client.
type scatterTrace struct {
	tr     *Tracer
	rounds [][]roundStamps
}

type coordinator struct {
	psharp.StaticBase
	cfg     *coordConfig
	pending int
	sum     uint64
	round   int
	handled int
}

func (*coordinator) ConfigureType(sc *psharp.Schema) {
	sc.Start("Serving").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*coordinator).cfg = ev.(*coordConfig)
		}).
		OnEventDoM(&evStart{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*coordinator)
			st := ev.(*evStart)
			c.handled++
			var rs *roundStamps
			if tr := c.cfg.tr; tr != nil {
				rs = &tr.rounds[c.cfg.client][st.round]
				rs.start = tr.tr.Now()
			}
			c.pending, c.sum, c.round = len(c.cfg.workers), 0, st.round
			for i, w := range c.cfg.workers {
				if rs != nil {
					rs.fanSend[i] = c.cfg.tr.tr.Now()
				}
				ctx.Send(w, &evReq{from: ctx.ID(), client: c.cfg.client, round: st.round, idx: i, x: st.x, tr: c.cfg.tr})
			}
			if rs != nil {
				rs.scatter = c.cfg.tr.tr.Now()
			}
		}).
		OnEventDoM(&evReply{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*coordinator)
			c.handled++
			c.sum += ev.(*evReply).v
			c.pending--
			if c.pending == 0 {
				if tr := c.cfg.tr; tr != nil {
					tr.rounds[c.cfg.client][c.round].gather = tr.tr.Now()
				}
				c.cfg.done <- c.sum
			}
		})
}

type worker struct {
	psharp.StaticBase
	handled int
}

func (*worker) ConfigureType(sc *psharp.Schema) {
	sc.Start("Serving").
		OnEventDoM(&evReq{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			w := m.(*worker)
			req := ev.(*evReq)
			w.handled++
			if tr := req.tr; tr != nil {
				tr.rounds[req.client][req.round].fanRecv[req.idx] = tr.tr.Now()
			}
			ctx.Send(req.from, &evReply{v: workerValue(req.x, req.idx)})
		})
}

// scatterSystem is one built runtime with its machines.
type scatterSystem struct {
	rt      *psharp.Runtime
	coords  []*coordinator
	workers []*worker
	ids     []psharp.MachineID
	done    []chan uint64
}

// buildScatter builds the runtime, registers both machine types and
// creates the workers and one coordinator per client, waiting until every
// machine has finished initializing.
func buildScatter(clients int) (*scatterSystem, error) {
	s := &scatterSystem{rt: psharp.NewRuntime()}
	if err := s.rt.Register("Coordinator", func() psharp.Machine {
		c := &coordinator{}
		s.coords = append(s.coords, c)
		return c
	}); err != nil {
		return nil, err
	}
	if err := s.rt.Register("Worker", func() psharp.Machine {
		w := &worker{}
		s.workers = append(s.workers, w)
		return w
	}); err != nil {
		return nil, err
	}
	workers := make([]psharp.MachineID, scatterWorkers)
	for i := range workers {
		id, err := s.rt.CreateMachine("Worker", nil)
		if err != nil {
			return nil, err
		}
		workers[i] = id
	}
	for c := 0; c < clients; c++ {
		done := make(chan uint64, 1)
		id, err := s.rt.CreateMachine("Coordinator", &coordConfig{client: c, workers: workers, done: done})
		if err != nil {
			return nil, err
		}
		s.ids = append(s.ids, id)
		s.done = append(s.done, done)
	}
	return s, s.rt.Wait()
}

// handled sums the events every machine has handled. Call it only while
// the runtime is quiescent.
func (s *scatterSystem) handled() int64 {
	var n int64
	for _, c := range s.coords {
		n += int64(c.handled)
	}
	for _, w := range s.workers {
		n += int64(w.handled)
	}
	return n
}

// clientStats is one client's result for a pass.
type clientStats struct {
	hist   *Hist
	wrong  int
	errors int
}

// pass runs rounds rounds on every client concurrently and waits for them.
// Inputs come from one generator per client, advanced in order.
func (s *scatterSystem) pass(rngs []splitmix, rounds int, stats []clientStats, tr *scatterTrace) {
	var wg sync.WaitGroup
	for c := range s.ids {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(c, &rngs[c], rounds, &stats[c], tr)
		}(c)
	}
	wg.Wait()
}

func (s *scatterSystem) client(c int, rng *splitmix, rounds int, st *clientStats, tr *scatterTrace) {
	id, done := s.ids[c], s.done[c]
	for r := 0; r < rounds; r++ {
		x := rng.next()
		ev := &evStart{round: r, x: x}
		var rs *roundStamps
		if tr != nil {
			rs = &tr.rounds[c][r]
			rs.send0 = tr.tr.Now()
		}
		t0 := time.Now()
		if err := s.rt.SendEvent(id, ev); err != nil {
			st.errors++
			continue
		}
		if rs != nil {
			rs.send1 = tr.tr.Now()
		}
		sum := <-done
		if rs != nil {
			rs.woke = tr.tr.Now()
		}
		if st.hist != nil {
			st.hist.Record(int64(time.Since(t0)))
		}
		if sum != expectedSum(x) {
			st.wrong++
		}
	}
}

// checkScatter checks a phase: every round completed with the right sum,
// the runtime recorded no failure, and the machines handled exactly
// rounds × (2K+1) events.
func checkScatter(rounds int64, handled int64, failure *psharp.Bug, stats []clientStats, ck *checks) {
	for c, st := range stats {
		if st.wrong > 0 || st.errors > 0 {
			ck.fail("client %d: %d rounds with a wrong sum, %d failed sends", c, st.wrong, st.errors)
		}
	}
	if failure != nil {
		ck.fail("runtime failure: %v", failure)
	}
	if want := rounds * scatterEventsPerRnd; handled != want {
		ck.fail("machines handled %d events, want %d rounds x %d", handled, rounds, scatterEventsPerRnd)
	}
}

func scatterSetup() ([]float64, error) {
	setup := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		for i := 0; i < scatterSetupBuilds; i++ {
			s, err := buildScatter(runtime.GOMAXPROCS(0))
			if err != nil {
				return nil, fmt.Errorf("runtime-scatter set-up: %w", err)
			}
			s.rt.Stop()
		}
		setup = append(setup, time.Since(t0).Seconds()/scatterSetupBuilds)
	}
	return setup, nil
}

func clientRNGs(seed uint64, clients int) []splitmix {
	root := splitmix{seed}
	rngs := make([]splitmix, clients)
	for i := range rngs {
		rngs[i] = splitmix{root.next()}
	}
	return rngs
}

func runScatter(cfg config) (*outcome, error) {
	var ck checks
	setup, err := scatterSetup()
	if err != nil {
		return nil, err
	}
	clients := runtime.GOMAXPROCS(0)
	s, err := buildScatter(clients)
	if err != nil {
		return nil, err
	}
	defer s.rt.Stop()
	rngs := clientRNGs(cfg.seed, clients)
	stats := make([]clientStats, clients)
	s.pass(rngs, scatterRounds, stats, nil) // warm-up
	if err := s.rt.Wait(); err != nil {
		return nil, err
	}
	h0 := s.handled()
	for c := range stats {
		stats[c] = clientStats{hist: NewHist()}
	}

	passes := passesFor(cfg.seconds, scatterPassNominal, 3)
	t := startTimed(passes, wallTime)
	for i := 0; i < passes; i++ {
		s.pass(rngs, scatterRounds, stats, nil)
		t.ops += int64(clients * scatterRounds)
		t.passOps += int64(clients * scatterRounds)
		t.endPass()
	}
	t.stop()
	// runtime-scatter runs on the wall clock: a round's time is its latency.
	for _, st := range stats {
		t.hist.Merge(st.hist)
		t.wallHist.Merge(st.hist)
	}
	waitErr := s.rt.Wait()
	checkScatter(t.ops, s.handled()-h0, s.rt.Failure(), stats, &ck)
	if waitErr != nil && s.rt.Failure() == nil {
		ck.fail("runtime wait: %v", waitErr)
	}

	o := &outcome{}
	if err := endToEnd(o, t, setup); err != nil {
		return nil, err
	}
	o.linef("closed loop: %d clients, %d workers, %d events per round", clients, scatterWorkers, scatterEventsPerRnd)
	finish(o, &ck)
	return o, nil
}

// traceScatter runs untraced passes (the overhead baseline, and the CPU
// utilisation), then the same number of rounds with every machine and
// client stamping its boundary times, and splits each round's latency into
// its critical-path segments.
func traceScatter(cfg config) (*outcome, error) {
	var ck checks
	clients := runtime.GOMAXPROCS(0)
	rounds := scatterRounds
	passes := max(1, passesFor(cfg.seconds, scatterPassNominal, 3)/4)
	tr := &scatterTrace{tr: NewTracer(1 << 16), rounds: make([][]roundStamps, clients)}
	for c := range tr.rounds {
		tr.rounds[c] = make([]roundStamps, rounds)
	}
	s, err := buildScatter(clients)
	if err != nil {
		return nil, err
	}
	defer s.rt.Stop()
	rngs := clientRNGs(cfg.seed, clients)
	stats := make([]clientStats, clients)
	s.pass(rngs, rounds, stats, nil) // warm-up

	cpu0, wall0 := cpuTime(), time.Now()
	for i := 0; i < passes; i++ {
		s.pass(rngs, rounds, stats, nil)
	}
	wall := time.Since(wall0)
	cpuUtil := (cpuTime() - cpu0).Seconds() / wall.Seconds()
	total := int64(passes * clients * rounds)
	untracedNs := float64(wall.Nanoseconds()) / float64(total)

	// Traced passes: the coordinators stamp once their configs carry the
	// trace and hand it on to the workers in every request. The runtime is
	// quiescent here, so the machines see the change through its locks.
	for _, c := range s.coords {
		if c.cfg != nil { // nil: the instance Register builds to inspect the type
			c.cfg.tr = tr
		}
	}
	var segs struct{ send, wake, scatter, gather, signal, fanout, fanN int64 }
	var tracedWall time.Duration
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		s.pass(rngs, rounds, stats, tr)
		tracedWall += time.Since(t0)
		for c := range tr.rounds {
			for r := range tr.rounds[c] {
				rs := &tr.rounds[c][r]
				op := r + c*rounds
				tr.tr.Add("psharp.runtime.send", rs.send0, rs.send1, op)
				tr.tr.Add("psharp.runtime.wake", rs.send1, rs.start, op)
				tr.tr.Add("coordinator.scatter", rs.start, rs.scatter, op)
				tr.tr.Add("workers.gather", rs.scatter, rs.gather, op)
				tr.tr.Add("client.signal", rs.gather, rs.woke, op)
				segs.send += rs.send1 - rs.send0
				segs.wake += rs.start - rs.send1
				segs.scatter += rs.scatter - rs.start
				segs.gather += rs.gather - rs.scatter
				segs.signal += rs.woke - rs.gather
				for k := 0; k < scatterWorkers; k++ {
					segs.fanout += rs.fanRecv[k] - rs.fanSend[k]
					segs.fanN++
				}
			}
		}
	}
	if err := s.rt.Wait(); err != nil {
		ck.fail("runtime wait: %v", err)
	}
	checkScatter(int64((2*passes+1)*clients*rounds), s.handled(), s.rt.Failure(), stats, &ck)
	tracedNs := float64(tracedWall.Nanoseconds()) / float64(total)

	vals := map[string]float64{
		"psharp.runtime.send_ns":   nsPer(segs.send, total),
		"psharp.runtime.wake_ns":   nsPer(segs.wake, total),
		"psharp.runtime.fanout_ns": nsPer(segs.fanout, segs.fanN),
		"psharp.runtime.cpu_util":  cpuUtil,
	}
	o := &outcome{attempted: total}
	o.linef("rounds are concurrent on %d clients: per-op time is wall time / rounds, segments are per-round critical path", clients)
	selfTable(o, vals, tracedNs, []selfRow{
		{"psharp.runtime.send (SendEvent)", nsPer(segs.send, total) / float64(clients)},
		{"psharp.runtime.wake (to handler entry)", nsPer(segs.wake, total) / float64(clients)},
		{"coordinator scatter (K sends)", nsPer(segs.scatter, total) / float64(clients)},
		{"workers + replies (gather)", nsPer(segs.gather, total) / float64(clients)},
		{"client signal (done channel)", nsPer(segs.signal, total) / float64(clients)},
	})
	overhead(o, vals, tracedNs, untracedNs)
	setLayers(o, vals)
	if err := writeTraces(cfg.traceOut, map[string]*Tracer{"rounds": tr.tr}); err != nil {
		return nil, err
	}
	o.linef("spans written to %s", cfg.traceOut)
	finish(o, &ck)
	return o, nil
}

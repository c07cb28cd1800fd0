// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload — a fixed, seed-derived sequence of ops, split over
// a few processes — checks that the program's outputs are correct, prints
// every metric by name and unit, and ends with one JSON line:
//
//	go run . --workload table2-random --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the same workload is re-driven, in one process, through
// the layer below each public boundary and the run reports per-layer
// metrics instead; the spans are written to --trace-out. See README.md for
// the workloads, the layer map and the noise evidence behind the design.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed     uint64
	seconds  int
	traceOut string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload run's result before printing.
type outcome struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	// lines are human-readable report lines printed before the JSON.
	lines []string
}

func (o *outcome) set(name string, value float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: value, Unit: unit}
}

func (o *outcome) linef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// checks counts failed output checks; the first few are kept for the report.
type checks struct {
	failed int64
	notes  []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 10 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// workload pairs the untraced end-to-end run with the traced layer run.
type workload struct {
	run   func(config) (*outcome, error)
	trace func(config) (*outcome, error)
}

var workloads = map[string]workload{
	"table2-random":   {runTable2Random, traceTable2Random},
	"table2-dpor":     {runTable2DPOR, traceTable2DPOR},
	"runtime-scatter": {runScatter, traceScatter},
	"table1-psl":      {runPSL, tracePSL},
}

// children is how many processes an end-to-end run is split into. Identical
// work measured in separate processes differs by up to ~18% on the
// reference host while a process's own passes agree (README.md, "Why it is
// built this way"), so every reported value is the median over these
// processes, each measuring its share of the run.
const children = 5

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: table2-random, table2-dpor, runtime-scatter or table1-psl")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same ops")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phases on the reference host")
	trace := fs.Int("trace", 0, "1 = traced layer run (per-layer metrics), 0 = end-to-end metrics")
	traceOut := fs.String("trace-out", "", "span file prefix of a traced run (default .bench_build/trace-<workload>.jsonl)")
	child := fs.Bool("child", false, "measure in this process only (used by the parent run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traceOut: *traceOut}
	if cfg.traceOut == "" {
		cfg.traceOut = ".bench_build/trace-" + *name + ".jsonl"
	}
	if !*child {
		fmt.Println(hostRecord(cfg.seed))
		fmt.Printf("workload=%s trace=%d seconds=%d\n", *name, *trace, cfg.seconds)
	}
	start := time.Now()
	var out *outcome
	var err error
	switch {
	case *trace == 1:
		out, err = w.trace(cfg)
	case *child:
		out, err = w.run(cfg)
	default:
		out, err = runChildren(*name, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	if !*child {
		for _, k := range names {
			fmt.Printf("metric %-36s %16.6g %s\n", k, out.metrics[k].Value, out.metrics[k].Unit)
		}
		fmt.Printf("run took %.1fs\n", time.Since(start).Seconds())
	}
	line, err := json.Marshal(result{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChildren runs the workload in children processes one after another,
// each on its own seed and a children-th of the seconds, and reports the
// median of every metric; attempted and failed ops add up.
func runChildren(name string, cfg config) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	per := max(1, (cfg.seconds+children/2)/children)
	seeds := splitmix{cfg.seed}
	o := &outcome{}
	values := map[string][]float64{}
	var agreeLines [][]string
	for k := 0; k < children; k++ {
		var stdout bytes.Buffer
		cmd := exec.Command(exe, "--child", "--workload", name, "--seed", strconv.FormatUint(seeds.next(), 10),
			"--seconds", strconv.Itoa(per), "--trace", "0")
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("child %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("child %d: result line: %w", k, err)
		}
		var agree []string
		for _, l := range lines[:len(lines)-1] {
			o.linef("[process %d] %s", k, l)
			if strings.HasPrefix(l, agreePrefix) {
				agree = append(agree, l)
			}
		}
		agreeLines = append(agreeLines, agree)
		o.attempted += r.Attempted
		o.failed += r.Failed
		for m, v := range r.Metrics {
			values[m] = append(values[m], v.Value)
			o.set(m, 0, v.Unit)
		}
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		vs := values[m]
		if len(vs) != children {
			return nil, fmt.Errorf("metric %s reported by %d of %d processes", m, len(vs), children)
		}
		o.set(m, median(vs), o.metrics[m].Unit)
		o.linef("%s per process: %s", m, fmtRates(vs))
	}
	for _, d := range disagreements(agreeLines) {
		o.failed++
		o.linef("CHECK FAILED: %s", d)
	}
	o.linef("failed_ops_pct %.4f %% (%d of %d)", 100*float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	return o, nil
}

// agreePrefix marks report lines that must read the same in every process
// of a run: results that do not depend on the seed.
const agreePrefix = "agree: "

// disagreements compares every process's agree lines with the first
// process's, line by line, and describes each line that differs.
func disagreements(perProcess [][]string) []string {
	var out []string
	for k := 1; k < len(perProcess); k++ {
		a, b := perProcess[0], perProcess[k]
		for i := 0; i < max(len(a), len(b)); i++ {
			var x, y string
			if i < len(a) {
				x = a[i]
			}
			if i < len(b) {
				y = b[i]
			}
			if x != y {
				out = append(out, fmt.Sprintf("process %d printed %q where process 0 printed %q", k, y, x))
			}
		}
	}
	return out
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// passesFor sizes a count-bounded op sequence: the number of fixed passes
// that take about seconds on the reference host, where one pass took
// nominal. The count depends only on the arguments, never on the clock, so
// every run of a seed does the same work.
func passesFor(seconds int, nominal time.Duration, minimum int) int {
	n := int(float64(seconds)*float64(time.Second)/float64(nominal) + 0.5)
	return max(n, minimum)
}

// Timed collects one timed phase: per-op times and wall latencies in
// histograms allocated before the loop, per-pass throughput on the
// workload's clock and on the wall clock, and the allocation count. Start
// it after the warm-up; it forces a GC first.
//
// A workload whose ops run one at a time is timed by the process CPU
// clock (cpuTime): an op's time is the CPU time it took, and a pass's rate
// is its ops per CPU-second. CPU time leaves out the time the hypervisor
// takes the vCPU away (steal), which on the reference host swings from 1%
// to over a third of the machine within minutes and moves wall-clock rates
// by as much. runtime-scatter's rounds overlap on several goroutines, and
// its CPU time includes the Go scheduler's idle spinning, which changes
// with the load on the other cores; it is timed by the wall clock.
type Timed struct {
	clock          func() time.Duration
	hist, wallHist *Hist
	rates          []float64
	wallRates      []float64
	ops            int64
	passOps        int64
	mallocs0       uint64
	start          time.Time
	passStart      time.Time
	passClock      time.Duration
	wall           time.Duration
	allocs         uint64
}

// wallTime is the wall clock as a duration since the process started.
func wallTime() time.Duration { return time.Since(processStart) }

var processStart = time.Now()

func startTimed(passes int, clock func() time.Duration) *Timed {
	t := &Timed{clock: clock, hist: NewHist(), wallHist: NewHist(),
		rates: make([]float64, 0, passes), wallRates: make([]float64, 0, passes)}
	runtime.GC()
	t.mallocs0 = mallocs()
	t.start = time.Now()
	t.passStart, t.passClock = t.start, clock()
	return t
}

// record adds one op's time on the workload's clock and its wall latency,
// both in ns.
func (t *Timed) record(opNs, wallNs int64) {
	t.hist.Record(opNs)
	t.wallHist.Record(wallNs)
	t.ops++
	t.passOps++
}

// endPass closes a pass and records its throughput.
func (t *Timed) endPass() {
	now, c := time.Now(), t.clock()
	t.rates = append(t.rates, float64(t.passOps)/(c-t.passClock).Seconds())
	t.wallRates = append(t.wallRates, float64(t.passOps)/now.Sub(t.passStart).Seconds())
	t.passStart, t.passClock, t.passOps = now, c, 0
}

func (t *Timed) stop() {
	t.wall = time.Since(t.start)
	t.allocs = mallocs() - t.mallocs0
}

// minBeyond is the least number of samples that must lie above a reported
// percentile.
const minBeyond = 10

// endToEnd fills the end-to-end metrics shared by every workload from a
// timed phase and the set-up repetitions (seconds each, on the workload's
// clock).
func endToEnd(o *outcome, t *Timed, setup []float64) error {
	if t.ops == 0 {
		return fmt.Errorf("timed phase ran no ops")
	}
	o.attempted = t.ops
	o.set("ops_per_s", median(t.rates), "1/s")
	for _, p := range []struct {
		name string
		q    float64
	}{{"op_us.p50", 0.50}, {"op_us.p90", 0.90}} {
		v, ok := t.hist.Quantile(p.q, minBeyond)
		if !ok {
			return fmt.Errorf("%s: only %d ops, fewer than %d beyond the percentile", p.name, t.ops, minBeyond)
		}
		o.set(p.name, v/1e3, "us")
	}
	o.set("allocs_per_op", float64(t.allocs)/float64(t.ops), "count")
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.set("max_rss_mb", rss, "MiB")
	o.set("setup_s", median(setup), "s")

	o.linef("timed phase: %d ops in %d passes, %.3fs wall, mean %.1f ops per wall-s; median pass %.1f ops/s, %.1f ops per wall-s",
		t.ops, len(t.rates), t.wall.Seconds(), float64(t.ops)/t.wall.Seconds(), median(t.rates), median(t.wallRates))
	o.linef("pass rates (ops/s on the workload's clock, in run order): %s", fmtRates(t.rates))
	o.linef("pass rates (ops per wall-s, in run order): %s", fmtRates(t.wallRates))
	for _, h := range []struct {
		name string
		hist *Hist
	}{{"op_us", t.hist}, {"wall latency_us", t.wallHist}} {
		line := h.name
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if v, ok := h.hist.Quantile(q, minBeyond); ok {
				line += fmt.Sprintf(" p%g %.3f", 100*q, v/1e3)
			} else {
				line += fmt.Sprintf(" p%g n/a", 100*q)
			}
		}
		o.linef("%s (%d samples; a percentile needs %d beyond it)", line, t.ops, minBeyond)
	}
	o.linef("setup_s reps: %v", fmtSeconds(setup))
	return nil
}

// finish copies check results into the outcome.
func finish(o *outcome, ck *checks) {
	o.failed = ck.failed
	pct := 0.0
	if o.attempted > 0 {
		pct = 100 * float64(ck.failed) / float64(o.attempted)
	}
	o.linef("failed_ops_pct %.4f %% (%d of %d)", pct, ck.failed, o.attempted)
	for _, n := range ck.notes {
		o.linef("CHECK FAILED: %s", n)
	}
}

func fmtSeconds(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'g', 4, 64)
	}
	return s + "]"
}

func fmtRates(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'g', 6, 64)
	}
	return s
}

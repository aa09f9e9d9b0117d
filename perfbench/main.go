// Command perfbench is the repository benchmark. One run drives all three
// layer stacks of the system — the reasoning core in-process (wrangle), the
// vada-server binary over HTTP with durability on (serve), and that binary
// restarting over a crashed data dir (recover) — and the workload decides
// which stack carries the load. It checks every output it can, and prints
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1) as
// the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// The line before it is the full report: the machine, every metric with its
// sample count, and the run's parameters. Run it through run.sh, which
// builds vada-server and this command from the checkout:
//
//	bash perfbench/run.sh --workload serve --seed 7 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// declared is one metric as BENCHMARK.json lists it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every run reports all
// of them: each workload drives all three stacks.
var endToEnd = []declared{
	{"bootstrap_p50_ms", "ms", "lower", 0.25},
	{"pipeline_p50_ms", "ms", "lower", 0.25},
	{"wrangles_per_s", "1/s", "higher", 0.25},
	{"create_p50_ms", "ms", "lower", 0.25},
	{"stage_p50_ms", "ms", "lower", 0.25},
	{"plan_p50_ms", "ms", "lower", 0.25},
	{"plan_p90_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"fsyncs_per_ack", "count", "lower", 0.25},
	{"disk_bytes_per_ack", "B", "lower", 0.25},
	{"restart_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Names of the three stacks (and of the workloads that load each).
const (
	stackWrangle = "wrangle"
	stackServe   = "serve"
	stackRecover = "recover"
)

// workload is the share of --seconds each stack's phase gets, which sizes
// that phase's work (see work). The workload's own stack gets the most
// time and is the stack whose process peak_rss_mb reports; the other two
// get less, so that every end-to-end metric is measured on every workload.
type workload struct {
	main  string
	share map[string]float64
}

var workloads = map[string]workload{
	stackWrangle: {stackWrangle, map[string]float64{stackWrangle: 0.5, stackServe: 0.38, stackRecover: 0.12}},
	stackServe:   {stackServe, map[string]float64{stackServe: 0.58, stackWrangle: 0.3, stackRecover: 0.12}},
	stackRecover: {stackRecover, map[string]float64{stackRecover: 0.45, stackServe: 0.25, stackWrangle: 0.3}},
}

// cycle is a stack's unit of work: ops operations that together cover the
// stack's whole input pool, so any number of whole cycles sees the same
// inputs whatever the seed, which only orders them. seconds is what one
// cycle takes on a 2-vCPU Xeon; it sizes a run from --seconds.
type cycle struct {
	ops     int
	seconds float64
}

var cycles = map[string]cycle{
	stackWrangle: {wranglePool, 9},                           // every pool scenario once
	stackServe:   {sessionPool, 4.3},                         // every pool session once
	stackRecover: {restartsPerCycle, restartsPerCycle * 0.2}, // copy, exec, verify and kill
}

// restartsPerCycle is the recover stack's unit of work.
const restartsPerCycle = 10

// work is the number of operations of each stack a run of the given
// length does: whole cycles, at least one, in proportion to the workload's
// shares. A run does a fixed amount of work rather than stopping at a
// deadline, so two runs attempt the same operations and meet the same
// failures; only their timings differ.
func (wl workload) work(seconds int) map[string]int {
	out := map[string]int{}
	for stack, share := range wl.share {
		c := cycles[stack]
		out[stack] = c.ops * max(1, int(math.Round(float64(seconds)*share/c.seconds)))
	}
	return out
}

// clientShare is client c's part of n operations split across the clients.
func clientShare(n, c int) int {
	return n/clients + boolInt(c < n%clients)
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// clients is the closed-loop client count of the wrangle and serve phases.
// On a 2-vCPU machine a second client made the medians of the small
// operations bimodal (contended or not) and unsteady from run to run.
const clients = 1

// roundSeconds is the length of one round of phase slices.
const roundSeconds = 12

// stacks is the order of the phases within a round.
var stacks = []string{stackWrangle, stackServe, stackRecover}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	out      string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]plainValue `json:"metrics"`
}

type plainValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceFlag int
	var updateGolden bool
	flag.StringVar(&o.workload, "workload", "", "workload: wrangle, serve or recover")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds of measurement, which size the work of the three phases")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.server, "server", "", "path to a vada-server binary built from this tree")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for reports, spans and temporary data dirs")
	flag.BoolVar(&updateGolden, "update-golden", false, "recompute golden/wrangle.json and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	if updateGolden {
		if err := writeGolden(context.Background(), goldenPath()); err != nil {
			fatal(err)
		}
		return
	}
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatal(fmt.Errorf("usage: perfbench -workload wrangle|serve|recover -seed N -seconds S -trace 0|1 -server PATH"))
	}
	if o.server == "" {
		fatal(fmt.Errorf("-server: path to vada-server required"))
	}
	if err := run(context.Background(), o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run performs one benchmark run and prints its report and result lines.
func run(ctx context.Context, o options) error {
	wl := workloads[o.workload]
	golden, err := readGolden(goldenPath())
	if err != nil {
		return err
	}
	runDir, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, boolInt(o.trace))))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(runDir); err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	tmpDir := filepath.Join(runDir, "tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)

	machine := recordMachine(tmpDir)
	steal0, ticks0 := cpuTicks()
	b := &bench{opts: o, golden: golden, rec: NewRecorder(), tmp: tmpDir, layers: newLayers(o.trace)}

	// Set up several times and keep the last; setup_s is the median.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		b.teardown()
		t0 := time.Now()
		if err := b.setup(ctx, i); err != nil {
			b.teardown()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.teardown()

	// The phases run in rounds of short slices, so that every stack is
	// sampled across the whole run rather than in one window of it.
	work := wl.work(o.seconds)
	rounds := max(1, int(math.Round(float64(o.seconds)/roundSeconds)))
	for r := 0; r < rounds; r++ {
		for _, stack := range stacks {
			n := work[stack]*(r+1)/rounds - work[stack]*r/rounds
			if n == 0 {
				continue
			}
			// Collect and return the previous phase's garbage now, so the
			// runtime does not scavenge it while the next phase measures.
			debug.FreeOSMemory()
			var err error
			switch stack {
			case stackWrangle:
				err = b.wrangle(ctx, n)
			case stackServe:
				err = b.serve(ctx, n)
			case stackRecover:
				err = b.recover(ctx, n)
			}
			if err != nil {
				return fmt.Errorf("%s phase: %w", stack, err)
			}
		}
	}
	if b.wrangleStats.pipelines == 0 {
		return fmt.Errorf("no wrangle pipeline completed")
	}
	if o.trace {
		b.wrangleProbes(ctx)
		if err := b.layers.probeCrashDir(b.crash); err != nil {
			return err
		}
		// trace.overhead_pct: one cycle of the workload's own stack once
		// more with tracing off, against the traced slices above.
		if err := b.untracedPass(ctx, wl.main, cycles[wl.main].ops); err != nil {
			return fmt.Errorf("untraced %s pass: %w", wl.main, err)
		}
	}

	e2e := Metrics{}
	e2e.Set("setup_s", "s", Quantile(setups, 0.5), len(setups))
	b.endToEndMetrics(e2e, wl.main)
	m := e2e
	var layerM Metrics
	if o.trace {
		if layerM, err = b.layerMetrics(); err != nil {
			return err
		}
		if err := b.layers.write(runDir); err != nil {
			return err
		}
		m = layerM
	}
	attempted, failed := b.rec.Totals()
	if attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	res := result{Correct: !b.incorrect.Load(), Attempted: attempted, Failed: failed, Metrics: map[string]plainValue{}}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v)", name, v.Value)
		}
		res.Metrics[name] = plainValue{v.Value, v.Unit}
	}
	share, err := FailureShare(attempted, failed)
	if err != nil {
		return err
	}
	report := map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"machine":       machine,
		"end_to_end":    e2e,
		"per_layer":     layerM,
		"attempted":     attempted,
		"failed":        failed,
		"failure_share": share,
		"failures":      b.failureLog(),
		"work":          work,
		"steal_pct":     stealPct(steal0, ticks0),
	}
	data, err := json.Marshal(report)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(runDir, "report.json"), data, 0o644); err != nil {
		return err
	}
	fmt.Println(string(data))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

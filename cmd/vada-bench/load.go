package main

import (
	"fmt"
	"sort"
	"time"

	"vada/internal/loadgen"
)

// loadOptions bundles the -exp load flags.
type loadOptions struct {
	preset    string
	seed      int64
	workers   int
	duration  time.Duration
	recovery  bool
	strict    bool
	trace     bool
	traceDump string
	connect   bool
	advise    bool
	baseline  bool
	notes     string
	out       string
}

// runLoad is the service benchmark: a closed-loop workload over the
// self-hosted server, reported as the BENCH_<n>.json schema. strict turns
// any error-class count (op errors, 5xx, recovery failures, missing
// traces) into a non-zero exit — the CI smoke gate.
func runLoad(o loadOptions) error {
	cfg := loadgen.Preset(o.preset)
	cfg.Seed = o.seed
	if o.workers > 0 {
		cfg.Workers = o.workers
	}
	if o.duration > 0 {
		cfg.Duration = o.duration
	}
	cfg.Recovery = o.recovery
	cfg.Trace = o.trace
	cfg.TraceDump = o.traceDump
	cfg.Connect = o.connect
	cfg.Advise = o.advise
	cfg.CompareBaseline = o.baseline
	cfg.Notes = o.notes

	fmt.Printf("load benchmark: preset %s, %d workers, %s steady state, seed %d, recovery %v, trace %v, connect %v, advise %v\n",
		cfg.Name, cfg.Workers, cfg.Duration, cfg.Seed, cfg.Recovery, cfg.Trace, cfg.Connect, cfg.Advise)
	rep, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	printLoadReport(rep)
	if o.out != "" {
		if err := loadgen.WriteReport(rep, o.out); err != nil {
			return fmt.Errorf("writing %s: %w", o.out, err)
		}
		fmt.Printf("\nreport written to %s\n", o.out)
	}
	if o.strict {
		bad := rep.Totals.Errors + rep.HTTP5xx
		if rep.Recovery != nil {
			bad += rep.Recovery.Errors
		}
		if rep.Recovery != nil && !rep.Recovery.Verified {
			return fmt.Errorf("load: recovery verification failed: %+v", rep.Recovery)
		}
		if cfg.Trace && rep.RunsMissingTrace > 0 {
			return fmt.Errorf("load: %d of %d plan runs lost their trace",
				rep.RunsMissingTrace, rep.RunsTraced+rep.RunsMissingTrace)
		}
		if bad != 0 {
			return fmt.Errorf("load: %d error-class events (op errors %d, 5xx %d)",
				bad, rep.Totals.Errors, rep.HTTP5xx)
		}
		// The durability regression gate: with a baseline pass in the same
		// run, the optimised configuration must not cost more per run.
		if rep.Baseline != nil {
			if rep.FsyncsPerRun > rep.Baseline.FsyncsPerRun {
				return fmt.Errorf("load: fsyncs/run regressed: %.2f vs baseline %.2f",
					rep.FsyncsPerRun, rep.Baseline.FsyncsPerRun)
			}
			if rep.DiskBytesPerRun > rep.Baseline.DiskBytesPerRun {
				return fmt.Errorf("load: disk bytes/run regressed: %.0f vs baseline %.0f",
					rep.DiskBytesPerRun, rep.Baseline.DiskBytesPerRun)
			}
		}
	}
	return nil
}

// printLoadReport renders the human-readable table next to the JSON.
func printLoadReport(rep *loadgen.Report) {
	fmt.Printf("\n%-16s %8s %7s %9s %9s %9s %7s\n",
		"op", "count", "errors", "ops/s", "p50 ms", "p99 ms", "max ms")
	ops := make([]string, 0, len(rep.Ops))
	for op := range rep.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := rep.Ops[op]
		fmt.Printf("%-16s %8d %7d %9.1f %9.2f %9.2f %7.0f\n",
			op, st.Count, st.Errors, st.ThroughputPerS, st.P50Ms, st.P99Ms, st.MaxMs)
	}
	fmt.Printf("%-16s %8d %7d %9.1f\n", "total", rep.Totals.Count, rep.Totals.Errors, rep.Totals.ThroughputPerS)
	fmt.Printf("\nhttp 5xx: %d   runs completed: %d   fsyncs/run: %.2f   disk bytes/run: %.0f   sse drops: %d\n",
		rep.HTTP5xx, rep.RunsCompleted, rep.FsyncsPerRun, rep.DiskBytesPerRun, rep.SSEDropped)
	if b := rep.Baseline; b != nil {
		fmt.Printf("baseline (%s): fsyncs/run %.2f -> %.2f, disk bytes/run %.0f -> %.0f\n",
			b.Name, b.FsyncsPerRun, rep.FsyncsPerRun, b.DiskBytesPerRun, rep.DiskBytesPerRun)
	}
	if rep.Config.Trace {
		fmt.Printf("traces: %d plan runs traced, %d missing\n", rep.RunsTraced, rep.RunsMissingTrace)
	}
	if rep.Recovery != nil {
		fmt.Printf("recovery: killed=%v restart=%.1fms sessions %d (%d durable) -> %d verified=%v errors=%d\n",
			rep.Recovery.Killed, rep.Recovery.RestartMs, rep.Recovery.SessionsBefore,
			rep.Recovery.SessionsDurable, rep.Recovery.SessionsRestored, rep.Recovery.Verified, rep.Recovery.Errors)
	}
}

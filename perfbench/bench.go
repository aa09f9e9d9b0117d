package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// bench is the state of one run.
type bench struct {
	opts   options
	golden *goldenFile
	rec    *Recorder
	tmp    string
	layers *layers // nil-safe; records nothing when untraced

	// incorrect is set when an output the program produced was wrong (as
	// opposed to an operation that failed outright).
	incorrect atomic.Bool
	mu        sync.Mutex
	failures  []string

	// Set up.
	setupDir  string
	wrangleIn [][]scenarioInput
	srv       *child
	crash     *crashDir

	// Clients' places in their input sequences, kept across slices.
	wrangleNext  []int
	serveClients []*serveClient

	// Measured.
	wrangleStats wrangleStats
	wrangleRSS   float64
	serveStats   serveStats
	serveRSS     float64
	recoverStats recoverStats
	overheadPct  float64
}

// maxFailureLog bounds the failure messages kept for the report.
const maxFailureLog = 20

// failure logs a failed operation for the report (the Recorder counts it).
func (b *bench) failure(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failures) < maxFailureLog {
		b.failures = append(b.failures, err.Error())
	}
}

func (b *bench) failureLog() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.failures...)
}

// setup builds every stack's inputs: the wrangle clients' scenario
// sequences, a serving vada-server over a fresh data dir, and a crashed
// data dir for the recover phase.
func (b *bench) setup(_ context.Context, i int) error {
	b.setupDir = filepath.Join(b.tmp, fmt.Sprintf("setup%d", i))
	if err := os.MkdirAll(b.setupDir, 0o755); err != nil {
		return err
	}
	b.wrangleIn = buildWrangleInputs(b.opts.seed)
	b.wrangleNext = make([]int, clients)
	b.serveClients = nil
	srv, err := startServer(b.opts.server, filepath.Join(b.setupDir, "serve-data"), filepath.Join(b.setupDir, "serve.log"))
	if err != nil {
		return err
	}
	b.srv = srv
	b.crash, err = b.prepareCrash(filepath.Join(b.setupDir, "crash-data"), filepath.Join(b.setupDir, "crash.log"))
	return err
}

// teardown stops the serving server and removes the set-up's files.
func (b *bench) teardown() {
	b.srv.kill()
	b.srv, b.crash, b.wrangleIn = nil, nil, nil
	if b.setupDir != "" {
		os.RemoveAll(b.setupDir)
		b.setupDir = ""
	}
}

// endToEndMetrics fills m with every end-to-end metric but setup_s.
func (b *bench) endToEndMetrics(m Metrics, main string) {
	p50 := func(name, class string) {
		s := b.rec.Samples(class)
		m.Set(name, "ms", Quantile(s, 0.5), len(s))
	}
	p90 := func(name, class string) {
		s := b.rec.Samples(class)
		m.Set(name, "ms", Quantile(s, 0.9), len(s))
	}
	p50("bootstrap_p50_ms", "bootstrap_ms")
	p50("pipeline_p50_ms", "pipeline_ms")
	ws := b.wrangleStats
	m.Set("wrangles_per_s", "1/s", float64(ws.pipelines)/ws.elapsed.Seconds(), ws.pipelines)

	p50("create_p50_ms", "serve.create")
	p50("stage_p50_ms", "stage_ms")
	p50("plan_p50_ms", "plan_ms")
	p90("plan_p90_ms", "plan_ms")
	p50("read_p50_ms", "serve.read")
	p90("read_p90_ms", "serve.read")
	ss := b.serveStats
	m.Set("ops_per_s", "1/s", float64(ss.ops)/ss.elapsed.Seconds(), int(ss.ops))
	d := ss.delta()
	m.Set("fsyncs_per_ack", "count", float64(d.fsyncs)/float64(ss.acks), int(ss.acks))
	m.Set("disk_bytes_per_ack", "B", float64(d.journalBytes+d.snapshotBytes)/float64(ss.acks), int(ss.acks))

	p50("restart_p50_ms", "restart_ms")
	switch main {
	case stackWrangle:
		m.Set("peak_rss_mb", "MB", b.wrangleRSS, 1)
	case stackServe:
		m.Set("peak_rss_mb", "MB", b.serveRSS, 1)
	case stackRecover:
		var rss []float64
		for _, r := range b.recoverStats.restarts {
			rss = append(rss, r.rssMB)
		}
		m.Set("peak_rss_mb", "MB", Quantile(rss, 0.5), len(rss))
	}
}

// serverDelta is the movement of the server counters over a serve phase.
type serverDelta struct {
	fsyncs, journalFsyncs, snapshotFsyncs int64
	journalBytes, snapshotBytes           int64
	snapshots, compactions, sseDropped    int64
	connectRows                           int64
}

func (ss serveStats) delta() serverDelta {
	d := func(base, label string) int64 {
		return ss.after.counterSum(base, label) - ss.before.counterSum(base, label)
	}
	return serverDelta{
		fsyncs:         d("persist_fsync_total", ""),
		journalFsyncs:  d("persist_fsync_total", `path="journal"`),
		snapshotFsyncs: d("persist_fsync_total", `path="snapshot"`),
		journalBytes:   d("persist_journal_bytes_total", ""),
		snapshotBytes:  d("persist_snapshot_bytes_total", ""),
		snapshots:      d("persist_snapshots_total", ""),
		compactions:    d("persist_compactions_total", ""),
		sseDropped:     d("sse_dropped_events_total", ""),
		connectRows:    d("connect_rows_total", ""),
	}
}

// histMeanMs is the mean, in ms, of a seconds histogram over a serve phase.
func (ss serveStats) histMeanMs(base, label string) float64 {
	c1, s1 := ss.after.hist(base, label)
	c0, s0 := ss.before.hist(base, label)
	if c1 == c0 {
		return 0
	}
	return (s1 - s0) / float64(c1-c0) * 1000
}

// untracedPass runs n operations of the workload's own stack once more
// without spans and sets trace.overhead_pct from it: how much longer the
// traced pass's median operation took, in percent of the untraced one.
func (b *bench) untracedPass(ctx context.Context, main string, n int) error {
	rec := NewRecorder()
	var traced, untraced float64
	switch main {
	case stackWrangle:
		traced = Quantile(b.rec.Samples("pipeline_ms"), 0.5)
		b.wranglePhase(ctx, n, rec, nil)
		untraced = Quantile(rec.Samples("pipeline_ms"), 0.5)
	case stackServe:
		traced = b.serveStats.elapsed.Seconds() / float64(b.serveStats.ops)
		st, err := b.servePhase(n, b.newServeClients(rec, nil, 1))
		if err != nil {
			return err
		}
		untraced = st.elapsed.Seconds() / float64(st.ops)
	case stackRecover:
		traced = Quantile(b.rec.Samples("restart_ms"), 0.5)
		if _, err := b.recoverPhase(n, rec, nil); err != nil {
			return err
		}
		untraced = Quantile(rec.Samples("restart_ms"), 0.5)
	}
	attempted, failed := rec.Totals()
	if attempted == 0 || untraced <= 0 || math.IsNaN(untraced) {
		return fmt.Errorf("untraced %s pass measured nothing", main)
	}
	// The pass's operations count like any others.
	b.rec.Count(attempted, failed)
	b.overheadPct = (traced - untraced) / untraced * 100
	return nil
}

// Package loadgen is the closed-loop workload driver behind vada-bench
// -exp load: it self-hosts the full internal/server wiring (durability
// included) in-process, drives it over real HTTP with a pool of workers —
// session churn, synchronous stages, concurrent multi-stage plans, SSE
// fan-out with Last-Event-ID resume, export/delete/import round-trips —
// optionally kills the server abruptly (no graceful shutdown, the in-process
// kill -9) and measures the restart, and reports client-side latency
// histograms per op class alongside the server's own metricz delta as a
// machine-readable BENCH report.
//
// Runs are deterministic per seed: every worker derives its own PRNG from
// Config.Seed, which chooses the scenario sizes, session seeds and the op
// mix, so a BENCH_<n>.json regenerated on the same machine exercises the
// identical request sequence per worker.
package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"vada/internal/metrics"
	"vada/internal/server"
	"vada/internal/trace"
)

// Config parameterises one load run.
type Config struct {
	// Name labels the run in the report ("smoke", "standard", ...).
	Name string `json:"name"`
	// Workers is the closed-loop worker count: each keeps exactly one
	// operation in flight at a time.
	Workers int `json:"workers"`
	// Duration bounds the steady-state phase (the recovery phase, when
	// enabled, follows it).
	Duration time.Duration `json:"-"`
	// DurationS mirrors Duration in the JSON report.
	DurationS float64 `json:"duration_s"`
	// Seed roots every worker's deterministic PRNG (op mix, scenario
	// sizes, session seeds).
	Seed int64 `json:"seed"`
	// Sessions is the live-session pool the workers churn towards.
	Sessions int `json:"sessions"`
	// Sizes are the scenario sizes (n) the PRNG picks among at session
	// creation.
	Sizes []int `json:"sizes"`
	// Recovery adds the kill-9/restart phase after the steady state.
	Recovery bool `json:"recovery"`
	// Connect adds the connector round-trip op to the mix: a deterministic
	// generated CSV ingested through stages/ingest, streamed back through
	// the relation export route.
	Connect bool `json:"connect"`
	// Advise adds the advisor loop op to the mix: fetch the ranked
	// suggestions for a session and, when one carries a feedback-batch
	// action, accept it verbatim through the generic stage route.
	Advise bool `json:"advise"`
	// Trace runs the hosted server with the span recorder on and, after the
	// steady state (before any kill — the restart wipes the in-memory
	// store), verifies every accepted plan run left a retrievable trace.
	Trace bool `json:"trace"`
	// TraceDump, when non-empty, writes the server's full trace dump (every
	// retained span, keyed by trace ID) to this path after the steady
	// state — the artifact CI uploads when the completeness gate fails.
	TraceDump string `json:"-"`
	// SnapshotOnly replaces the journal and persists the full snapshot
	// envelope per completed stage instead — the same per-stage durability
	// point, paid for wholesale. This is the mode CompareBaseline measures
	// against.
	SnapshotOnly bool `json:"snapshot_only,omitempty"`
	// CompareBaseline runs a second, baseline pass — same workload in
	// SnapshotOnly mode, every persist a full fsynced envelope — and embeds
	// its durability cost in the report, so one run carries its own
	// regression reference for the journal. The baseline pass replays the
	// first pass's per-worker op counts instead of running for Duration,
	// so both passes do the same amount of work.
	CompareBaseline bool `json:"-"`
	// Notes is free-form context copied into the report (e.g. "tracing
	// overhead vs BENCH_1").
	Notes string `json:"-"`
	// DataDir is the durability directory; empty means a fresh temp dir,
	// removed when the run finishes.
	DataDir string `json:"-"`
	// Server overrides the hosted server's wiring; the zero value gets
	// production-like defaults sized to Workers.
	Server server.Config `json:"-"`
}

// Preset returns a named scenario preset: "smoke" is the short
// low-concurrency CI gate, "standard" the default benchmark shape. Unknown
// names fall back to "standard".
func Preset(name string) Config {
	switch name {
	case "smoke":
		return Config{Name: "smoke", Workers: 2, Duration: 3 * time.Second,
			Seed: 1, Sessions: 3, Sizes: []int{30, 60}, Recovery: true}
	default:
		return Config{Name: "standard", Workers: 8, Duration: 15 * time.Second,
			Seed: 1, Sessions: 12, Sizes: []int{30, 60, 120}, Recovery: true}
	}
}

// OpStats is the per-op-class section of a report, latencies in
// milliseconds.
type OpStats struct {
	Count          int64   `json:"count"`
	Errors         int64   `json:"errors"`
	ThroughputPerS float64 `json:"throughput_per_s"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
}

// Totals is the all-ops roll-up of a report. It carries no latency
// quantiles: those live per op class in OpStats, because quantiles of
// different op classes do not add up.
type Totals struct {
	Count          int64   `json:"count"`
	Errors         int64   `json:"errors"`
	ThroughputPerS float64 `json:"throughput_per_s"`
}

// Baseline is the durability cost of the comparison pass a
// Config.CompareBaseline run embeds: the same workload in the pre-journal
// snapshot-per-stage mode. The journalled run regresses when its per-run
// fsync or disk-byte cost exceeds these numbers.
type Baseline struct {
	Name            string  `json:"name"`
	RunsCompleted   int64   `json:"runs_completed"`
	Fsyncs          int64   `json:"fsyncs"`
	FsyncsPerRun    float64 `json:"fsyncs_per_run"`
	DiskBytesPerRun float64 `json:"disk_bytes_per_run"`
}

// Recovery is the kill-9/restart section of a report.
type Recovery struct {
	Killed         bool    `json:"killed"`
	RestartMs      float64 `json:"restart_ms"`
	SessionsBefore int     `json:"sessions_before"`
	// SessionsDurable counts the pool sessions with an acknowledged stage
	// or run at the kill; every one must be restored.
	SessionsDurable  int   `json:"sessions_durable"`
	SessionsRestored int   `json:"sessions_restored"`
	Verified         bool  `json:"verified"`
	Errors           int64 `json:"errors"`
}

// Report is the machine-readable outcome of a load run — the BENCH_<n>.json
// schema.
type Report struct {
	Config   Config             `json:"config"`
	At       time.Time          `json:"at"`
	ElapsedS float64            `json:"elapsed_s"`
	Ops      map[string]OpStats `json:"ops"`
	Totals   Totals             `json:"totals"`
	HTTP5xx  int64              `json:"http_5xx"`
	// ServerDelta is the server-side counter movement over the run (from
	// /api/v1/metricz snapshots): fsyncs, journal/snapshot bytes, run
	// completions, SSE drops — the numbers client latencies cannot see.
	ServerDelta     map[string]int64 `json:"server_delta"`
	RunsCompleted   int64            `json:"runs_completed"`
	Fsyncs          int64            `json:"fsyncs"`
	FsyncsPerRun    float64          `json:"fsyncs_per_run"`
	DiskBytesPerRun float64          `json:"disk_bytes_per_run"`
	SSEDropped      int64            `json:"sse_dropped_events"`
	// Baseline is the comparison pass's durability cost (CompareBaseline
	// runs only).
	Baseline *Baseline `json:"baseline,omitempty"`
	// RunsTraced/RunsMissingTrace are the trace-completeness tally (Trace
	// runs only): every accepted plan run must still resolve to a span tree
	// via GET /api/v1/traces/{id} at the end of the steady state.
	RunsTraced       int64     `json:"runs_traced,omitempty"`
	RunsMissingTrace int64     `json:"runs_missing_trace,omitempty"`
	Notes            string    `json:"notes,omitempty"`
	Recovery         *Recovery `json:"recovery,omitempty"`
}

// driver is the shared state of one load run.
type driver struct {
	cfg    Config
	client *metrics.Registry // client-side op histograms and counters
	http   *http.Client

	mu   sync.Mutex
	pool []string // live session IDs
	// incarnation changes whenever an ID joins or leaves the pool, so an
	// acknowledgement observed for a deleted (or deleted and re-imported)
	// session cannot mark its successor. durable holds the pool sessions
	// with an acknowledged stage or run since they joined: the sessions a
	// kill -9 must not lose.
	incarnation map[string]int
	durable     map[string]bool

	// traceMu guards traceIDs: the trace ID of every accepted plan run,
	// captured from the Traceparent response header for the completeness
	// check after the steady state.
	traceMu  sync.Mutex
	traceIDs []string

	srv *server.Server
	ts  *httptest.Server
}

// Run executes the configured workload and returns its report. The server
// is hosted in-process; nothing listens beyond the loopback listener of
// net/http/httptest.
func Run(cfg Config) (*Report, error) {
	r, _, err := run(cfg, nil)
	return r, err
}

// run executes one pass. With replay nil every worker runs until the
// steady-state deadline; otherwise worker i runs exactly replay[i]
// operations. It returns the per-worker op counts alongside the report.
func run(cfg Config, replay []int) (*Report, []int, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	cfg.DurationS = cfg.Duration.Seconds()
	if cfg.Sessions <= 0 {
		cfg.Sessions = cfg.Workers
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{30, 60}
	}
	if cfg.Name == "" {
		cfg.Name = "custom"
	}
	dataDir := cfg.DataDir
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "vada-loadgen-*")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}

	d := &driver{
		cfg:    cfg,
		client: metrics.NewRegistry(),
		http:   &http.Client{Timeout: 30 * time.Second},
	}
	if err := d.boot(dataDir); err != nil {
		return nil, nil, err
	}
	defer func() {
		if d.ts != nil {
			d.ts.Close()
		}
		if d.srv != nil {
			d.srv.Close()
		}
	}()

	before, err := d.metricz()
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: initial metricz: %w", err)
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	ops := make([]int, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		more := func(int) bool { return time.Now().Before(deadline) }
		if replay != nil {
			limit := replay[w]
			more = func(done int) bool { return done < limit }
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ops[id] = d.worker(rand.New(rand.NewSource(cfg.Seed+int64(id))), more)
		}(w)
	}
	wg.Wait()

	// Snapshot the server delta BEFORE any kill: the restart boots a fresh
	// registry, so a post-recovery snapshot would zero every counter.
	after, err := d.metricz()
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: final metricz: %w", err)
	}
	// Likewise the trace checks: the store is in-memory, so completeness is
	// asserted against the server that ran the workload, not its restart.
	traced, missing := d.verifyTraces()
	if cfg.TraceDump != "" {
		if err := d.writeTraceDump(cfg.TraceDump); err != nil {
			return nil, nil, fmt.Errorf("loadgen: writing trace dump: %w", err)
		}
	}
	var rec *Recovery
	if cfg.Recovery {
		rec = d.recover(dataDir)
	}
	r := d.report(start, before, after, rec)
	r.RunsTraced, r.RunsMissingTrace = traced, missing
	r.Notes = cfg.Notes
	if cfg.CompareBaseline {
		if err := attachBaseline(r, cfg, ops); err != nil {
			return nil, nil, err
		}
	}
	return r, ops, nil
}

// attachBaseline runs the comparison pass — identical workload in
// snapshot-per-stage mode (journal off, so every persist is a full fsynced
// envelope), no recovery or trace phases (the counters it exists for are
// steady-state) — and embeds its durability cost in r. The pass replays
// ops, the journal pass's per-worker op counts, rather than racing its own
// deadline: the slower baseline would otherwise complete less work, and
// the per-run comparison would measure the difference in work, not in
// durability cost.
func attachBaseline(r *Report, cfg Config, ops []int) error {
	bcfg := cfg
	bcfg.Name = cfg.Name + "-snapshot-baseline"
	bcfg.CompareBaseline = false
	bcfg.SnapshotOnly = true
	bcfg.Recovery, bcfg.Trace, bcfg.TraceDump = false, false, ""
	bcfg.Notes = ""
	bcfg.DataDir = ""
	brep, _, err := run(bcfg, ops)
	if err != nil {
		return fmt.Errorf("loadgen: baseline pass: %w", err)
	}
	r.Baseline = &Baseline{
		Name:            brep.Config.Name,
		RunsCompleted:   brep.RunsCompleted,
		Fsyncs:          brep.Fsyncs,
		FsyncsPerRun:    brep.FsyncsPerRun,
		DiskBytesPerRun: brep.DiskBytesPerRun,
	}
	return nil
}

// verifyTraces resolves every captured plan-run trace ID against
// GET /api/v1/traces/{id}: a 200 whose tree is non-empty counts as traced,
// anything else as missing. No-op (0, 0) when tracing is off.
func (d *driver) verifyTraces() (traced, missing int64) {
	d.traceMu.Lock()
	ids := append([]string(nil), d.traceIDs...)
	d.traceMu.Unlock()
	for _, id := range ids {
		resp, err := d.http.Get(d.base() + "/traces/" + id)
		if err != nil {
			missing++
			continue
		}
		var tree struct {
			Spans []json.RawMessage `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tree)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil && len(tree.Spans) > 0 {
			traced++
		} else {
			missing++
		}
	}
	return traced, missing
}

// writeTraceDump writes the hosted server's full span store to path as
// indented JSON.
func (d *driver) writeTraceDump(path string) error {
	dump := d.srv.TraceDump()
	if dump == nil {
		dump = map[string][]trace.SpanData{}
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteReport writes the report as indented JSON to path.
func WriteReport(r *Report, path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// serverConfig fills production-like defaults over the user's overrides.
func (d *driver) serverConfig() server.Config {
	sc := d.cfg.Server
	if sc.N == 0 {
		sc.N = d.cfg.Sizes[0]
	}
	if sc.MaxN == 0 {
		sc.MaxN = 2000
	}
	if sc.Seed == 0 {
		sc.Seed = d.cfg.Seed
	}
	if sc.MaxSessions == 0 {
		sc.MaxSessions = d.cfg.Sessions * 4
	}
	if sc.RunWorkers == 0 {
		sc.RunWorkers = max(4, d.cfg.Workers)
	}
	if sc.RunQueue == 0 {
		sc.RunQueue = 256
	}
	if sc.RunSessionQueue == 0 {
		sc.RunSessionQueue = 16
	}
	if sc.SSEKeepAlive == 0 {
		sc.SSEKeepAlive = 15 * time.Second
	}
	if sc.SSEWriteTimeout == 0 {
		sc.SSEWriteTimeout = 10 * time.Second
	}
	if sc.JournalMaxRecords == 0 {
		sc.JournalMaxRecords = 64
	}
	if sc.JournalMaxBytes == 0 {
		sc.JournalMaxBytes = 4 << 20
	}
	sc.SnapshotPerStage = d.cfg.SnapshotOnly
	if d.cfg.Trace {
		sc.Trace = true
		if sc.TraceCapacity == 0 {
			// Hold every trace the run can produce: the completeness check
			// must not race ring-buffer eviction.
			sc.TraceCapacity = 65536
		}
	}
	if sc.Logger == nil {
		// The hosted server's operational log lines (restores, compactions,
		// session churn) would swamp the benchmark output.
		sc.Logger = slog.New(slog.DiscardHandler)
	}
	return sc
}

// boot starts (or restarts) the hosted server over dataDir.
func (d *driver) boot(dataDir string) error {
	sc := d.serverConfig()
	sc.DataDir = dataDir
	s, err := server.New(sc)
	if err != nil {
		return err
	}
	d.srv = s
	d.ts = httptest.NewServer(s.Handler())
	return nil
}

// base returns the server's URL root.
func (d *driver) base() string { return d.ts.URL + "/api/v1" }

// worker is one closed-loop client: it keeps exactly one operation in
// flight, choosing the next by weighted draw from its own PRNG, for as long
// as more(operations done so far) holds, and returns its operation count.
func (d *driver) worker(rng *rand.Rand, more func(done int) bool) int {
	done := 0
	for ; more(done); done++ {
		switch p := rng.Intn(100); {
		case p < 20:
			d.opCreate(rng)
		case p < 35:
			d.opPlan(rng)
		case p < 50:
			d.opStageSync(rng)
		case p < 70:
			d.opRead(rng)
		case p < 80:
			d.opSSE(rng)
		case p < 85:
			// The connector slot: without Connect the draw still consumes
			// the same PRNG sequence, so enabling connectors perturbs only
			// this op class, not the whole run.
			if d.cfg.Connect {
				d.opConnect(rng)
			} else {
				d.opExportImport(rng)
			}
		case p < 90:
			// The advisor slot works like the connector one: the draw is
			// identical either way, so -load-advise perturbs only this op
			// class, not the whole run.
			if d.cfg.Advise {
				d.opAdvise(rng)
			} else {
				d.opExportImport(rng)
			}
		default:
			d.opDelete(rng)
		}
	}
	return done
}

// observe records one operation's latency and outcome under its op class.
func (d *driver) observe(op string, t0 time.Time, err error) {
	d.client.Counter(metrics.Name("ops_total", "op", op)).Inc()
	d.client.Histogram(metrics.Name("op_seconds", "op", op), nil).ObserveSince(t0)
	if err != nil {
		d.client.Counter(metrics.Name("op_errors_total", "op", op)).Inc()
	}
}

// statusErr converts an unexpected HTTP status into an error, counting 5xx
// separately — the error class the CI smoke gate fails on.
func (d *driver) statusErr(resp *http.Response, want ...int) error {
	if resp.StatusCode >= 500 {
		d.client.Counter("http_5xx_total").Inc()
	}
	for _, w := range want {
		if resp.StatusCode == w {
			return nil
		}
	}
	return fmt.Errorf("status %s", resp.Status)
}

// pickSession returns a random live session ID and its incarnation, or "".
func (d *driver) pickSession(rng *rand.Rand) (string, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pool) == 0 {
		return "", 0
	}
	id := d.pool[rng.Intn(len(d.pool))]
	return id, d.incarnation[id]
}

// addSession puts a created or imported session in the pool. Neither is
// durable until a stage or run is acknowledged on it.
func (d *driver) addSession(id string) {
	d.mu.Lock()
	d.pool = append(d.pool, id)
	d.renewLocked(id)
	d.mu.Unlock()
}

// renewLocked starts a new incarnation of id, not yet durable. Callers
// hold d.mu.
func (d *driver) renewLocked(id string) {
	if d.incarnation == nil {
		d.incarnation = map[string]int{}
		d.durable = map[string]bool{}
	}
	d.incarnation[id]++
	delete(d.durable, id)
}

// markDurable records an acknowledged stage or run on the incarnation of
// id that pickSession returned; a stale incarnation is ignored.
func (d *driver) markDurable(id string, inc int) {
	d.mu.Lock()
	if d.incarnation[id] == inc {
		d.durable[id] = true
	}
	d.mu.Unlock()
}

// takeSession removes and returns a random session from the pool (for
// delete and import round-trips), keeping the pool above a floor so read
// ops always have targets.
func (d *driver) takeSession(rng *rand.Rand) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pool) <= d.cfg.Sessions/2 {
		return ""
	}
	i := rng.Intn(len(d.pool))
	id := d.pool[i]
	d.pool = append(d.pool[:i], d.pool[i+1:]...)
	d.renewLocked(id)
	return id
}

// opCreate makes a session with a PRNG-chosen scenario size and seed,
// keeping the pool near its target.
func (d *driver) opCreate(rng *rand.Rand) {
	d.mu.Lock()
	full := len(d.pool) >= d.cfg.Sessions
	d.mu.Unlock()
	if full {
		d.opRead(rng)
		return
	}
	n := d.cfg.Sizes[rng.Intn(len(d.cfg.Sizes))]
	seed := rng.Int63n(1 << 30)
	body := fmt.Sprintf(`{"name":"load","n":%d,"seed":%d}`, n, seed)
	t0 := time.Now()
	resp, err := d.http.Post(d.base()+"/sessions", "application/json", strings.NewReader(body))
	if err == nil {
		var out struct {
			ID string `json:"id"`
		}
		dec := json.NewDecoder(resp.Body)
		// 429 is the session cap doing its job under churn, not a failure.
		if err = d.statusErr(resp, http.StatusCreated, http.StatusTooManyRequests); err == nil &&
			resp.StatusCode == http.StatusCreated {
			if err = dec.Decode(&out); err == nil {
				d.addSession(out.ID)
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	d.observe("create_session", t0, err)
}

// opPlan submits a multi-stage plan asynchronously and polls it to a
// terminal state — the workhorse op that exercises the run engine.
func (d *driver) opPlan(rng *rand.Rand) {
	id, inc := d.pickSession(rng)
	if id == "" {
		d.opCreate(rng)
		return
	}
	plans := []string{
		`{"stages":[{"stage":"bootstrap"},{"stage":"data-context"}]}`,
		`{"stages":[{"stage":"bootstrap"},{"stage":"data-context"},{"stage":"feedback","payload":{"budget":20}}]}`,
		`{"stages":[{"stage":"bootstrap"},{"stage":"user-context","payload":{"model":"crime"}}]}`,
	}
	body := plans[rng.Intn(len(plans))]
	t0 := time.Now()
	resp, err := d.http.Post(d.base()+"/sessions/"+id+"/plans", "application/json", strings.NewReader(body))
	var loc string
	if err == nil {
		// A vanished session (deleted by a sibling worker) or a full
		// per-session queue is expected churn, not a failure.
		if err = d.statusErr(resp, http.StatusAccepted, http.StatusNotFound, http.StatusGone, http.StatusTooManyRequests, http.StatusConflict); err == nil && resp.StatusCode == http.StatusAccepted {
			loc = resp.Header.Get("Location")
			// Every accepted plan must leave a complete trace behind; the
			// response's Traceparent names it for the end-of-run check.
			if tid, _, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent")); ok {
				d.traceMu.Lock()
				d.traceIDs = append(d.traceIDs, tid)
				d.traceMu.Unlock()
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err == nil && loc != "" {
		var state string
		state, err = d.pollRun(loc)
		if state == "succeeded" {
			// A run turns terminal only once its stage records are durable.
			d.markDurable(id, inc)
		}
	}
	d.observe("plan", t0, err)
}

// pollRun GETs a run resource until it is terminal and returns the
// terminal state ("" when the session was torn down underneath the run).
func (d *driver) pollRun(loc string) (string, error) {
	for i := 0; i < 600; i++ {
		resp, err := d.http.Get(d.ts.URL + loc)
		if err != nil {
			return "", err
		}
		var run struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = d.statusErr(resp, http.StatusOK, http.StatusNotFound)
		if err == nil && resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&run)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusNotFound {
			return "", nil // session torn down underneath the run: churn, not failure
		}
		switch run.State {
		case "succeeded", "cancelled":
			return run.State, nil
		case "failed":
			return run.State, fmt.Errorf("run failed: %s", run.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "", fmt.Errorf("run %s never reached a terminal state", loc)
}

// opStageSync invokes one stage synchronously through the generic route.
func (d *driver) opStageSync(rng *rand.Rand) {
	id, inc := d.pickSession(rng)
	if id == "" {
		d.opCreate(rng)
		return
	}
	stages := []struct{ name, body string }{
		{"bootstrap", `{}`},
		{"data-context", `{}`},
		{"feedback", `{"budget":10}`},
	}
	st := stages[rng.Intn(len(stages))]
	t0 := time.Now()
	resp, err := d.http.Post(d.base()+"/sessions/"+id+"/stages/"+st.name, "application/json", strings.NewReader(st.body))
	if err == nil {
		err = d.statusErr(resp, http.StatusOK, http.StatusNotFound, http.StatusGone, http.StatusConflict)
		if resp.StatusCode == http.StatusOK {
			d.markDurable(id, inc)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	d.observe("stage_sync", t0, err)
}

// opRead fetches session state or a result page.
func (d *driver) opRead(rng *rand.Rand) {
	id, _ := d.pickSession(rng)
	if id == "" {
		return
	}
	url := d.base() + "/sessions/" + id
	if rng.Intn(2) == 0 {
		url += "/result?limit=50"
	}
	t0 := time.Now()
	resp, err := d.http.Get(url)
	if err == nil {
		err = d.statusErr(resp, http.StatusOK, http.StatusNotFound, http.StatusConflict)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	d.observe("read", t0, err)
}

// opSSE opens the session's event stream, reads until it has a stage event
// id (or the history is empty), then reconnects with Last-Event-ID and
// verifies the resumed stream only carries later events — the fan-out and
// resume path under load.
func (d *driver) opSSE(rng *rand.Rand) {
	id, _ := d.pickSession(rng)
	if id == "" {
		return
	}
	t0 := time.Now()
	lastID, err := d.sseRead(id, "")
	if err == nil && lastID != "" {
		_, err = d.sseRead(id, lastID)
	}
	d.observe("sse", t0, err)
}

// sseRead opens one SSE connection (resuming after lastEventID when given)
// and drains frames briefly, returning the last stage-event id seen.
func (d *driver) sseRead(id, lastEventID string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, d.base()+"/sessions/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return "", err
	}
	// Close without draining: an idle SSE stream produces no bytes until
	// the next keep-alive, so any "drain for reuse" read would block.
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone {
		return "", nil
	}
	if err := d.statusErr(resp, http.StatusOK); err != nil {
		return "", err
	}
	// Read the replayed history with a short deadline; the stream stays
	// open for live events, so a quiet session simply times out the read.
	type line struct {
		s   string
		err error
	}
	lines := make(chan line, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			select {
			case lines <- line{s: sc.Text()}:
			default:
				return
			}
		}
		lines <- line{err: sc.Err()}
	}()
	last := ""
	timeout := time.After(250 * time.Millisecond)
	for {
		select {
		case l := <-lines:
			if l.err != nil || l.s == "" && last != "" {
				return last, nil
			}
			if strings.HasPrefix(l.s, "id: ") {
				got := strings.TrimPrefix(l.s, "id: ")
				if lastEventID != "" && got <= lastEventID && len(got) <= len(lastEventID) {
					return last, fmt.Errorf("resume replayed id %s after Last-Event-ID %s", got, lastEventID)
				}
				last = got
			}
		case <-timeout:
			return last, nil
		}
	}
}

// opExportImport downloads a session snapshot, deletes the session, and
// restores it from the envelope — the full portability round-trip.
func (d *driver) opExportImport(rng *rand.Rand) {
	id := d.takeSession(rng)
	if id == "" {
		d.opRead(rng)
		return
	}
	t0 := time.Now()
	err := d.exportImport(id)
	d.observe("export_import", t0, err)
}

func (d *driver) exportImport(id string) error {
	resp, err := d.http.Get(d.base() + "/sessions/" + id + "/export")
	if err != nil {
		return err
	}
	snap, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusConflict {
		return nil // deleted by a sibling: churn
	}
	if err := d.statusErr(resp, http.StatusOK); err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}

	del, err := d.http.Do(must(http.NewRequest(http.MethodDelete, d.base()+"/sessions/"+id, nil)))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, del.Body)
	del.Body.Close()
	if err := d.statusErr(del, http.StatusNoContent, http.StatusNotFound); err != nil {
		return err
	}

	imp, err := d.http.Post(d.base()+"/sessions/import", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, imp.Body)
	imp.Body.Close()
	// 409 means another worker re-imported first; the session is live
	// either way.
	if err := d.statusErr(imp, http.StatusCreated, http.StatusConflict); err != nil {
		return err
	}
	d.addSession(id)
	return nil
}

// opConnect is the connector round-trip: ingest a deterministic generated
// CSV (sized and filled by the worker's PRNG) through the generic stage
// route, then stream the relation back out through the export route and
// drain the bytes — source and sink under load.
func (d *driver) opConnect(rng *rand.Rand) {
	id, inc := d.pickSession(rng)
	if id == "" {
		d.opCreate(rng)
		return
	}
	name := fmt.Sprintf("load%d", rng.Intn(4))
	rows := 5 + rng.Intn(20)
	var sb strings.Builder
	sb.WriteString("street,postcode,price\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d load lane,LD%d %dAA,%d\n", i, rng.Intn(90), 1+rng.Intn(9), 50000+rng.Intn(100000))
	}
	payload, err := json.Marshal(map[string]string{"relation": name, "data": sb.String()})
	if err != nil {
		d.observe("connect", time.Now(), err)
		return
	}
	t0 := time.Now()
	ingested := false
	resp, err := d.http.Post(d.base()+"/sessions/"+id+"/stages/ingest", "application/json", bytes.NewReader(payload))
	if err == nil {
		// Vanished sessions are churn, exactly as in the other ops.
		err = d.statusErr(resp, http.StatusOK, http.StatusNotFound, http.StatusGone, http.StatusConflict)
		ingested = resp.StatusCode == http.StatusOK
		if ingested {
			d.markDurable(id, inc)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err == nil && ingested {
		var eresp *http.Response
		eresp, err = d.http.Get(d.base() + "/sessions/" + id + "/export/" + name + "?format=csv")
		if err == nil {
			err = d.statusErr(eresp, http.StatusOK, http.StatusNotFound, http.StatusGone, http.StatusConflict)
			io.Copy(io.Discard, eresp.Body)
			eresp.Body.Close()
		}
	}
	d.observe("connect", t0, err)
}

// opAdvise is the mixed-initiative loop under load: fetch the advisor's
// ranked suggestions for a live session and, when the top actionable one
// targets the feedback-batch stage, accept it verbatim. Sessions vanishing
// mid-loop are churn, exactly as in the other ops.
func (d *driver) opAdvise(rng *rand.Rand) {
	id, inc := d.pickSession(rng)
	if id == "" {
		d.opCreate(rng)
		return
	}
	t0 := time.Now()
	resp, err := d.http.Get(d.base() + "/sessions/" + id + "/suggestions")
	var body []byte
	if err == nil {
		err = d.statusErr(resp, http.StatusOK, http.StatusNotFound, http.StatusGone)
		if resp.StatusCode == http.StatusOK {
			body, _ = io.ReadAll(resp.Body)
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
	if err == nil && len(body) > 0 {
		var out struct {
			Suggestions []struct {
				Action *struct {
					Stage   string          `json:"stage"`
					Payload json.RawMessage `json:"payload"`
				} `json:"action"`
			} `json:"suggestions"`
		}
		if jerr := json.Unmarshal(body, &out); jerr == nil {
			for _, sg := range out.Suggestions {
				if sg.Action == nil || sg.Action.Stage != "feedback-batch" {
					continue
				}
				var aresp *http.Response
				aresp, err = d.http.Post(d.base()+"/sessions/"+id+"/stages/"+sg.Action.Stage,
					"application/json", bytes.NewReader(sg.Action.Payload))
				if err == nil {
					err = d.statusErr(aresp, http.StatusOK, http.StatusNotFound, http.StatusGone, http.StatusConflict)
					if aresp.StatusCode == http.StatusOK {
						d.markDurable(id, inc)
					}
					io.Copy(io.Discard, aresp.Body)
					aresp.Body.Close()
				}
				break
			}
		}
	}
	d.observe("advise", t0, err)
}

// opDelete closes a session outright, shrinking the pool for opCreate to
// refill — the churn that drives evict hooks and durable-state GC.
func (d *driver) opDelete(rng *rand.Rand) {
	id := d.takeSession(rng)
	if id == "" {
		d.opRead(rng)
		return
	}
	t0 := time.Now()
	resp, err := d.http.Do(must(http.NewRequest(http.MethodDelete, d.base()+"/sessions/"+id, nil)))
	if err == nil {
		err = d.statusErr(resp, http.StatusNoContent, http.StatusNotFound)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	d.observe("delete_session", t0, err)
}

// recover is the kill-9/restart phase: drop the listener and abandon the
// server without any graceful shutdown (exactly what a SIGKILL leaves
// behind), restart over the same data directory, and verify the restored
// sessions answer state and result reads. Every pool session with an
// acknowledged stage or run must be restored; a created or imported session
// with neither is not durable yet, and the restart may lose it.
func (d *driver) recover(dataDir string) *Recovery {
	rec := &Recovery{Killed: true}
	d.mu.Lock()
	known := append([]string(nil), d.pool...)
	var durable []string
	for _, id := range known {
		if d.durable[id] {
			durable = append(durable, id)
		}
	}
	d.mu.Unlock()
	rec.SessionsBefore = len(known)
	rec.SessionsDurable = len(durable)

	// The kill: no Server.Close, no snapshot sweep — recovery must work
	// from whatever the journal and past snapshots already hold.
	d.ts.CloseClientConnections()
	d.ts.Close()
	d.srv = nil
	d.ts = nil

	t0 := time.Now()
	if err := d.boot(dataDir); err != nil {
		rec.Errors++
		return rec
	}
	rec.RestartMs = float64(time.Since(t0).Microseconds()) / 1000

	var listing struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	resp, err := d.http.Get(d.base() + "/sessions")
	if err != nil {
		rec.Errors++
		return rec
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		rec.Errors++
		return rec
	}
	restored := map[string]bool{}
	for _, s := range listing.Sessions {
		restored[s.ID] = true
	}
	rec.SessionsRestored = len(restored)

	rec.Verified = true
	for _, id := range durable {
		if !restored[id] {
			rec.Errors++
			rec.Verified = false
		}
	}
	for _, id := range known {
		if !restored[id] {
			// Durable sessions were checked above; this one had no
			// acknowledged stage or run yet, and its loss is known.
			continue
		}
		for _, p := range []struct {
			path string
			ok   []int
		}{
			{"/sessions/" + id, []int{http.StatusOK}},
			// A session restored before its first bootstrap has no result
			// yet; 404 is that state, not a recovery failure.
			{"/sessions/" + id + "/result?limit=10", []int{http.StatusOK, http.StatusNotFound}},
		} {
			resp, err := d.http.Get(d.base() + p.path)
			if err != nil {
				rec.Errors++
				rec.Verified = false
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			good := false
			for _, code := range p.ok {
				good = good || resp.StatusCode == code
			}
			if !good {
				rec.Errors++
				rec.Verified = false
			}
		}
	}
	d.mu.Lock()
	d.pool = d.pool[:0]
	for id := range restored {
		d.pool = append(d.pool, id)
		d.renewLocked(id)
		d.durable[id] = true // restored from disk
	}
	d.mu.Unlock()
	return rec
}

// metricz fetches the hosted server's metrics snapshot.
func (d *driver) metricz() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := d.http.Get(d.base() + "/metricz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("metricz: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// report assembles the BENCH document from the client registry and the
// server-side counter delta.
func (d *driver) report(start time.Time, before, after metrics.Snapshot, rec *Recovery) *Report {
	elapsed := time.Since(start).Seconds()
	snap := d.client.Snapshot()
	r := &Report{
		Config:   d.cfg,
		At:       time.Now().UTC(),
		ElapsedS: elapsed,
		Ops:      map[string]OpStats{},
		HTTP5xx:  snap.Counters["http_5xx_total"],
		Recovery: rec,
	}
	for name, count := range snap.Counters {
		op, ok := opLabel(name, "ops_total")
		if !ok {
			continue
		}
		hist := snap.Histograms[metrics.Name("op_seconds", "op", op)]
		r.Ops[op] = OpStats{
			Count:          count,
			Errors:         snap.Counters[metrics.Name("op_errors_total", "op", op)],
			ThroughputPerS: float64(count) / elapsed,
			P50Ms:          hist.P50 * 1000,
			P99Ms:          hist.P99 * 1000,
			MaxMs:          hist.Max * 1000,
		}
		r.Totals.Count += count
		r.Totals.Errors += r.Ops[op].Errors
	}
	r.Totals.ThroughputPerS = float64(r.Totals.Count) / elapsed

	r.ServerDelta = metrics.CounterDelta(before, after)
	for name, v := range r.ServerDelta {
		if strings.HasPrefix(name, "runs_completed_total") {
			r.RunsCompleted += v
		}
		if strings.HasPrefix(name, "sse_dropped_events_total") {
			r.SSEDropped += v
		}
		if strings.HasPrefix(name, "persist_fsync_total") {
			r.Fsyncs += v
		}
	}
	if r.RunsCompleted > 0 {
		disk := r.ServerDelta["persist_journal_bytes_total"] + r.ServerDelta["persist_snapshot_bytes_total"]
		r.DiskBytesPerRun = float64(disk) / float64(r.RunsCompleted)
		r.FsyncsPerRun = float64(r.Fsyncs) / float64(r.RunsCompleted)
	}
	return r
}

// opLabel extracts the op label from a `base{op="x"}` series name.
func opLabel(series, base string) (string, bool) {
	prefix := base + `{op="`
	if !strings.HasPrefix(series, prefix) {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`), true
}

// must panics on request-construction errors (static URLs only).
func must(req *http.Request, err error) *http.Request {
	if err != nil {
		panic(err)
	}
	return req
}

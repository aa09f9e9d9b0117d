package loadgen

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"vada/internal/metrics"
)

// TestSmokeRun drives a short low-concurrency run end to end — steady
// state plus the kill-9/restart phase — and checks the report carries the
// BENCH schema: op classes with latencies, zero error/5xx counts, server
// counter deltas and a verified recovery.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load run takes a few seconds")
	}
	cfg := Preset("smoke")
	cfg.Workers = 2
	cfg.Duration = 2 * time.Second
	cfg.DataDir = t.TempDir()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Totals.Count == 0 {
		t.Fatal("no operations completed")
	}
	if rep.Totals.Errors != 0 {
		t.Errorf("op errors = %d, want 0: %+v", rep.Totals.Errors, rep.Ops)
	}
	if rep.HTTP5xx != 0 {
		t.Errorf("5xx responses = %d, want 0", rep.HTTP5xx)
	}
	for op, st := range rep.Ops {
		if st.Count > 0 && st.P99Ms < st.P50Ms {
			t.Errorf("op %s: p99 %gms < p50 %gms", op, st.P99Ms, st.P50Ms)
		}
	}
	// The workload must have exercised the run engine and the durability
	// path; their server-side counters prove the instrumentation saw it.
	if rep.RunsCompleted == 0 {
		t.Error("no runs completed server-side")
	}
	if rep.ServerDelta["persist_journal_bytes_total"] == 0 {
		t.Error("no journal bytes written")
	}
	if rep.DiskBytesPerRun <= 0 {
		t.Errorf("disk bytes/run = %g, want > 0", rep.DiskBytesPerRun)
	}
	if rep.Recovery == nil || !rep.Recovery.Killed {
		t.Fatal("recovery phase did not run")
	}
	if rep.Recovery.Errors != 0 || !rep.Recovery.Verified {
		t.Errorf("recovery = %+v, want verified with no errors", rep.Recovery)
	}
	if rep.Recovery.SessionsRestored == 0 {
		t.Error("kill-9 restart restored no sessions")
	}

	// The report must round-trip as JSON (the BENCH_<n>.json contract).
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteReport(rep, out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Totals.Count != rep.Totals.Count || decoded.Config.Seed != cfg.Seed {
		t.Fatalf("report did not round-trip: %+v", decoded.Totals)
	}
}

// TestConnectOp drives the connector round-trip op directly against a
// booted driver — the mix draw is probabilistic, so short runs can't be
// relied on to hit the 5% slot — and checks it runs cleanly and actually
// pushes rows through the connector subsystem (the server-side connect
// counters move).
func TestConnectOp(t *testing.T) {
	cfg := Preset("smoke")
	cfg.Connect = true
	d := &driver{
		cfg:    cfg,
		client: metrics.NewRegistry(),
		http:   &http.Client{Timeout: 30 * time.Second},
	}
	if err := d.boot(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer d.srv.Close()
	defer d.ts.Close()

	// The first call finds an empty session pool and falls back to
	// opCreate; the rest do the ingest/export round-trip.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 5; i++ {
		d.opConnect(rng)
	}
	snap := d.client.Snapshot()
	if got := snap.Counters[metrics.Name("ops_total", "op", "connect")]; got != 4 {
		t.Fatalf("connect ops = %d, want 4 (counters: %v)", got, snap.Counters)
	}
	if errs := snap.Counters[metrics.Name("op_errors_total", "op", "connect")]; errs != 0 {
		t.Fatalf("connect op errors = %d, want 0", errs)
	}
	if fives := snap.Counters["http_5xx_total"]; fives != 0 {
		t.Fatalf("5xx responses = %d, want 0", fives)
	}
	server, err := d.metricz()
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for name, v := range server.Counters {
		if v > 0 && strings.HasPrefix(name, "connect_rows_total") {
			moved = true
		}
	}
	if !moved {
		t.Errorf("connector counters did not move: %+v", server.Counters)
	}
}

// TestAdviseOp drives the advisor loop op directly against a booted driver
// and checks it runs cleanly and actually exercises the advisor surface
// (the server-side advise ranking counters move).
func TestAdviseOp(t *testing.T) {
	cfg := Preset("smoke")
	cfg.Advise = true
	d := &driver{
		cfg:    cfg,
		client: metrics.NewRegistry(),
		http:   &http.Client{Timeout: 30 * time.Second},
	}
	if err := d.boot(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer d.srv.Close()
	defer d.ts.Close()

	// First call falls back to opCreate on the empty pool; the rest fetch
	// suggestions and accept any feedback-batch action they carry.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 5; i++ {
		d.opAdvise(rng)
	}
	snap := d.client.Snapshot()
	if got := snap.Counters[metrics.Name("ops_total", "op", "advise")]; got != 4 {
		t.Fatalf("advise ops = %d, want 4 (counters: %v)", got, snap.Counters)
	}
	if errs := snap.Counters[metrics.Name("op_errors_total", "op", "advise")]; errs != 0 {
		t.Fatalf("advise op errors = %d, want 0", errs)
	}
	if fives := snap.Counters["http_5xx_total"]; fives != 0 {
		t.Fatalf("5xx responses = %d, want 0", fives)
	}
	server, err := d.metricz()
	if err != nil {
		t.Fatal(err)
	}
	if server.Counters["advise_rank_total"] == 0 {
		t.Errorf("advisor counters did not move: %+v", server.Counters)
	}
}

// TestDeterministicSeed checks two runs with the same seed draw the same
// op sequence per worker (same op counts), which is what makes BENCH runs
// comparable across PRs.
func TestDeterministicSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("load run takes a few seconds")
	}
	run := func() map[string]int64 {
		cfg := Preset("smoke")
		cfg.Workers = 1
		cfg.Duration = 1200 * time.Millisecond
		cfg.Recovery = false
		cfg.Seed = 7
		cfg.DataDir = t.TempDir()
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int64{}
		for op, st := range rep.Ops {
			counts[op] = st.Count
		}
		return counts
	}
	a, b := run(), run()
	// Wall-clock cutoffs mean the tails differ; the leading op mix must
	// agree. Compare total spread loosely: every op class present in both.
	for op := range a {
		if b[op] == 0 && a[op] > 3 {
			t.Errorf("op %s: %d ops in run A, none in run B", op, a[op])
		}
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("empty op sets: %v / %v", a, b)
	}
}

// TestReportTotalsKeys pins the "totals" section of the BENCH schema:
// count, errors and throughput only. Latency quantiles belong to the per-op
// sections; a roll-up of them would have to be computed, not summed.
func TestReportTotalsKeys(t *testing.T) {
	d := &driver{cfg: Preset("smoke"), client: metrics.NewRegistry()}
	for _, op := range []string{"create", "plan"} {
		d.client.Counter(metrics.Name("ops_total", "op", op)).Add(3)
		d.client.Histogram(metrics.Name("op_seconds", "op", op), nil).Observe(0.01)
	}
	d.client.Counter(metrics.Name("op_errors_total", "op", "plan")).Inc()
	rep := d.report(time.Now().Add(-time.Second), metrics.Snapshot{}, metrics.Snapshot{}, nil)
	if rep.Totals.Count != 6 || rep.Totals.Errors != 1 || rep.Totals.ThroughputPerS <= 0 {
		t.Fatalf("totals = %+v, want count 6, errors 1, throughput > 0", rep.Totals)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Totals map[string]any `json:"totals"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc.Totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "count,errors,throughput_per_s"; got != want {
		t.Fatalf("totals keys = %s, want %s", got, want)
	}
}

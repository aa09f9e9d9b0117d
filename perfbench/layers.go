package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vada/internal/journal"
	"vada/internal/persist"
	"vada/internal/trace"
)

// transducerMetric names the self-time metric of the module each standard
// transducer wraps.
var transducerMetric = map[string]string{
	"web-extraction":        "extract.ms",
	"schema-matching":       "match.schema_ms",
	"instance-matching":     "match.instance_ms",
	"cfd-learning":          "cfd.learn_ms",
	"cfd-repair":            "cfd.repair_ms",
	"mapping-generation":    "mapping.generate_ms",
	"mapping-execution":     "mapping.execute_ms",
	"quality-assessment":    "quality.ms",
	"mapping-selection":     "mcda.select_ms",
	"duplicate-fusion":      "fusion.ms",
	"feedback-assimilation": "feedback.ms",
}

// httpOps are the request classes of the serve script.
var httpOps = []string{"create", "plan_submit", "plan_poll", "stage", "feedback", "suggestions", "feedback_batch",
	"state", "result", "sse", "upload", "export_csv", "export", "import", "delete"}

// planStages are the stages whose stage:<name> spans the serve script's
// writes produce.
var planStages = []string{"bootstrap", "data-context", "feedback", "quality-report", "user-context", "export"}

// perLayer lists the per-layer metrics a traced run reports.
func perLayer() []declared {
	out := []declared{
		{Name: "transducer.readiness_ms", Unit: "ms"},
		{Name: "transducer.steps", Unit: "count"},
		{Name: "transducer.useful_ratio", Unit: "ratio", Better: "higher"},
	}
	names := make([]string, 0, len(transducerMetric))
	for _, m := range transducerMetric {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		out = append(out, declared{Name: m, Unit: "ms"})
	}
	out = append(out,
		declared{Name: "vadalog.join_exec_ms", Unit: "ms"},
		declared{Name: "vadalog.base_exec_ms", Unit: "ms"},
		declared{Name: "vadalog.tuples_out", Unit: "count"},
		declared{Name: "vadalog.readiness_query_ms", Unit: "ms"},
		declared{Name: "kb.writes", Unit: "count"},
		declared{Name: "runtime.alloc_mb_per_wrangle", Unit: "MB"},
		declared{Name: "runtime.gc_cycles_per_wrangle", Unit: "count"},
	)
	for _, op := range httpOps {
		out = append(out, declared{Name: "http." + op + "_p50_ms", Unit: "ms"})
	}
	out = append(out,
		declared{Name: "runs.queue_wait_p50_ms", Unit: "ms"},
		declared{Name: "runs.queue_wait_p90_ms", Unit: "ms"},
		declared{Name: "runs.rejected", Unit: "count"},
		declared{Name: "runs.polls_per_plan", Unit: "count"},
	)
	for _, st := range planStages {
		out = append(out, declared{Name: "session.stage_p50_ms." + st, Unit: "ms"})
	}
	out = append(out,
		declared{Name: "session.events_per_session", Unit: "count"},
		declared{Name: "session.sse_dropped", Unit: "count"},
		declared{Name: "journal.appends", Unit: "1/ack"},
		declared{Name: "journal.fsyncs", Unit: "1/ack"},
		declared{Name: "journal.fsync_mean_ms", Unit: "ms"},
		declared{Name: "journal.append_p50_ms", Unit: "ms"},
		declared{Name: "journal.bytes_per_ack", Unit: "B"},
		declared{Name: "journal.group_batch_mean", Unit: "count", Better: "higher"},
		declared{Name: "journal.compactions", Unit: "1/ack"},
		declared{Name: "journal.replay_ms", Unit: "ms"},
		declared{Name: "journal.records", Unit: "count"},
		declared{Name: "persist.snapshots", Unit: "1/ack"},
		declared{Name: "persist.snapshot_bytes_per_ack", Unit: "B"},
		declared{Name: "persist.snapshot_fsync_mean_ms", Unit: "ms"},
		declared{Name: "persist.snapshot_decode_ms", Unit: "ms"},
		declared{Name: "persist.dir_bytes_per_session", Unit: "B"},
		declared{Name: "recover.boot_ms", Unit: "ms"},
		declared{Name: "recover.sessions_restored", Unit: "count", Better: "higher"},
		declared{Name: "recover.sessions_lost", Unit: "count"},
		declared{Name: "recover.sessions_mismatched", Unit: "count"},
		declared{Name: "advise.rank_mean_ms", Unit: "ms"},
		declared{Name: "connect.mean_ms", Unit: "ms"},
		declared{Name: "connect.rows", Unit: "rows/op"},
		declared{Name: "trace.plan_coverage", Unit: "ratio", Better: "higher"},
		declared{Name: "trace.overhead_pct", Unit: "%"},
	)
	for i := range out {
		if out[i].Better == "" {
			out[i].Better = "lower"
		}
	}
	return out
}

// layers keeps what a traced run learns about each layer: the benchmark's
// own spans around layer calls, the server's span trees, and the per-step
// records of the wrangler. A nil *layers (an untraced pass) records nothing.
type layers struct {
	tracer *trace.Tracer

	mu          sync.Mutex
	transducer  map[string][]float64 // metric name -> ms per pipeline
	readinessMs []float64            // per pipeline
	steps       []float64            // per pipeline
	kbWrites    []float64            // per pipeline
	changed     int
	stepsTotal  int
	probes      []*probe
	trees       map[string][]*trace.Node // server span trees by trace ID
	disk        diskProbe
}

// diskProbe is the traced run's direct read of the crashed data dir.
type diskProbe struct {
	replayMs, decodeMs []float64 // per file
	records            []float64 // per journal
	dirBytes           int64
	sessions           int
}

// newLayers returns the layer bookkeeping of a traced run, or nil.
func newLayers(traced bool) *layers {
	if !traced {
		return nil
	}
	return &layers{
		// Hold every span a run can make: nothing may be evicted before
		// the spans are written out.
		tracer:     trace.NewTracer(trace.NewStore(1<<20, 1<<10)),
		transducer: map[string][]float64{},
		trees:      map[string][]*trace.Node{},
	}
}

// root opens a root span; nil when untraced.
func (l *layers) root(name string, kv ...string) *trace.Span {
	if l == nil {
		return nil
	}
	return l.tracer.Root(name, "", kv...)
}

// addPipeline records one pipeline's per-step numbers.
func (l *layers) addPipeline(out pipelineOut) {
	if l == nil {
		return
	}
	per := map[string]float64{}
	var readiness float64
	steps, writes := 0, 0.0
	changed := 0
	for _, r := range out.runs {
		var inSteps time.Duration
		for _, s := range r.steps {
			inSteps += s.Duration
			if name, ok := transducerMetric[s.Transducer]; ok {
				per[name] += float64(s.Duration.Nanoseconds()) / 1e6
			}
			writes += float64(s.VersionAfter - s.VersionBefore)
			if s.Report.Changed() {
				changed++
			}
		}
		steps += len(r.steps)
		readiness += r.wallMs - float64(inSteps.Nanoseconds())/1e6
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, name := range transducerMetric {
		l.transducer[name] = append(l.transducer[name], per[name])
	}
	l.readinessMs = append(l.readinessMs, readiness)
	l.steps = append(l.steps, float64(steps))
	l.kbWrites = append(l.kbWrites, writes)
	l.changed += changed
	l.stepsTotal += steps
}

func (l *layers) addProbe(p *probe) {
	l.mu.Lock()
	l.probes = append(l.probes, p)
	l.mu.Unlock()
}

// fetchServerTrees fetches the server's span tree of every traced write.
func (l *layers) fetchServerTrees(srv *child, ids []string) error {
	if l == nil {
		return nil
	}
	for _, id := range ids {
		tree, err := fetchTree(srv, id)
		if err != nil {
			return err
		}
		l.trees[id] = tree
	}
	return nil
}

// probeCrashDir times journal.Replay on each .vjournal and
// persist.ReadSessionSnapshot on each .vsnap of the crashed dir.
func (l *layers) probeCrashDir(cd *crashDir) error {
	entries, err := os.ReadDir(cd.dir)
	if err != nil {
		return err
	}
	sp := l.root("recover.read-crashed-dir")
	defer sp.End()
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(cd.dir, e.Name()))
		if err != nil {
			return err
		}
		l.disk.dirBytes += int64(len(data))
		switch filepath.Ext(e.Name()) {
		case ".vjournal":
			cs := sp.Child("journal.Replay", "file", e.Name())
			t0 := time.Now()
			res, err := journal.Replay(bytes.NewReader(data))
			l.disk.replayMs = append(l.disk.replayMs, msSince(t0))
			cs.EndErr(err)
			if err != nil {
				return fmt.Errorf("replaying %s: %w", e.Name(), err)
			}
			l.disk.records = append(l.disk.records, float64(len(res.Records)))
		case ".vsnap":
			cs := sp.Child("persist.ReadSessionSnapshot", "file", e.Name())
			t0 := time.Now()
			_, err := persist.ReadSessionSnapshot(bytes.NewReader(data))
			l.disk.decodeMs = append(l.disk.decodeMs, msSince(t0))
			cs.EndErr(err)
			if err != nil {
				return fmt.Errorf("decoding %s: %w", e.Name(), err)
			}
		}
	}
	for _, s := range cd.sessions {
		if s.state != stateDeleted {
			l.disk.sessions++
		}
	}
	return nil
}

// spansByName collects the durations (ms) of every server span with the
// given name, and the coverage ratio of each "run" span by its children.
func (l *layers) serverSpans() (byName map[string][]float64, coverage []float64) {
	byName = map[string][]float64{}
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		byName[n.Name] = append(byName[n.Name], float64(n.Duration.Nanoseconds())/1e6)
		if n.Name == "run" && n.Duration > 0 {
			coverage = append(coverage, float64(covered(n))/float64(n.Duration))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, roots := range l.trees {
		for _, r := range roots {
			walk(r)
		}
	}
	return byName, coverage
}

// covered is how much of n's interval its children's intervals cover.
func covered(n *trace.Node) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	end := n.Start.Add(n.Duration)
	for _, c := range n.Children {
		a, b := c.Start, c.Start.Add(c.Duration)
		if a.Before(n.Start) {
			a = n.Start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfTimes sums, per span name, each span's duration minus what its
// children cover — the layer's own time.
func selfTimes(roots []*trace.Node, into map[string]float64) {
	for _, n := range roots {
		into[n.Name] += float64((n.Duration - covered(n)).Nanoseconds()) / 1e6
		selfTimes(n.Children, into)
	}
}

// write saves the benchmark's spans, the server's span trees and the
// self time per layer (span name) of both into runDir.
func (l *layers) write(runDir string) error {
	var benchTrees []*trace.Node
	store := l.tracer.Store()
	ids := make([]string, 0)
	for id := range store.Dump() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		benchTrees = append(benchTrees, store.Tree(id)...)
	}
	self := map[string]float64{}
	selfTimes(benchTrees, self)
	serverIDs := make([]string, 0, len(l.trees))
	for id := range l.trees {
		serverIDs = append(serverIDs, id)
	}
	sort.Strings(serverIDs)
	serverSelf := map[string]float64{}
	for _, id := range serverIDs {
		selfTimes(l.trees[id], serverSelf)
	}
	out := map[string]any{
		"bench_spans":        benchTrees,
		"server_traces":      l.trees,
		"bench_self_ms":      self,
		"server_self_ms":     serverSelf,
		"transducer_self_ms": l.transducerTotals(),
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(runDir, "spans.json"), data, 0o644)
}

func sum(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// transducerTotals is the summed Step.Duration per module over the run.
func (l *layers) transducerTotals() map[string]float64 {
	out := map[string]float64{}
	for name, per := range l.transducer {
		for _, v := range per {
			out[name] += v
		}
	}
	return out
}

// layerMetrics computes every per-layer metric of a traced run.
func (b *bench) layerMetrics() (Metrics, error) {
	l := b.layers
	m := Metrics{}
	med := func(s []float64) float64 { return Quantile(s, 0.5) }
	mean := func(s []float64) float64 { return sum(s) / float64(max(len(s), 1)) }
	n := len(l.steps)
	m.Set("transducer.readiness_ms", "ms", med(l.readinessMs), n)
	m.Set("transducer.steps", "count", med(l.steps), n)
	m.Set("transducer.useful_ratio", "ratio", float64(l.changed)/float64(l.stepsTotal), l.stepsTotal)
	for _, name := range transducerMetric {
		m.Set(name, "ms", med(l.transducer[name]), n)
	}
	var join, base, tuples, readyQ []float64
	for _, p := range l.probes {
		join = append(join, p.joinExecMs)
		base = append(base, p.baseExecMs)
		tuples = append(tuples, float64(p.tuplesOut))
		readyQ = append(readyQ, p.readinessQueryMs)
	}
	m.Set("vadalog.join_exec_ms", "ms", med(join), len(join))
	m.Set("vadalog.base_exec_ms", "ms", med(base), len(base))
	m.Set("vadalog.tuples_out", "count", med(tuples), len(tuples))
	m.Set("vadalog.readiness_query_ms", "ms", med(readyQ), len(readyQ))
	m.Set("kb.writes", "count", med(l.kbWrites), n)
	ws := b.wrangleStats
	m.Set("runtime.alloc_mb_per_wrangle", "MB", ws.allocMB/float64(ws.pipelines), ws.pipelines)
	m.Set("runtime.gc_cycles_per_wrangle", "count", float64(ws.gcCycles)/float64(ws.pipelines), ws.pipelines)

	for _, op := range httpOps {
		s := b.rec.Samples("http." + op)
		m.Set("http."+op+"_p50_ms", "ms", med(s), len(s))
	}
	spans, coverage := l.serverSpans()
	q := spans["queue-wait"]
	m.Set("runs.queue_wait_p50_ms", "ms", Quantile(q, 0.5), len(q))
	m.Set("runs.queue_wait_p90_ms", "ms", Quantile(q, 0.9), len(q))
	ss := b.serveStats
	m.Set("runs.rejected", "count", float64(ss.rejected), 0)
	m.Set("runs.polls_per_plan", "count", float64(ss.polls-ss.plans)/float64(ss.plans), int(ss.plans))
	for _, st := range planStages {
		s := spans["stage:"+st]
		m.Set("session.stage_p50_ms."+st, "ms", med(s), len(s))
	}
	ev := b.rec.Samples("events_per_session")
	m.Set("session.events_per_session", "count", med(ev), len(ev))
	d := ss.delta()
	acks := float64(ss.acks)
	m.Set("session.sse_dropped", "count", float64(d.sseDropped), 0)
	appends := spans["journal.append"]
	m.Set("journal.appends", "1/ack", float64(len(appends))/acks, int(ss.acks))
	m.Set("journal.fsyncs", "1/ack", float64(d.journalFsyncs)/acks, int(ss.acks))
	m.Set("journal.fsync_mean_ms", "ms", ss.histMeanMs("persist_fsync_seconds", `path="journal"`), int(d.journalFsyncs))
	m.Set("journal.append_p50_ms", "ms", med(appends), len(appends))
	m.Set("journal.bytes_per_ack", "B", float64(d.journalBytes)/acks, int(ss.acks))
	batch := 1.0
	if c1, s1 := ss.after.hist("persist_group_commit_batch_size", ""); c1 > 0 {
		c0, s0 := ss.before.hist("persist_group_commit_batch_size", "")
		if c1 > c0 {
			batch = (s1 - s0) / float64(c1-c0)
		}
	}
	m.Set("journal.group_batch_mean", "count", batch, 0)
	m.Set("journal.compactions", "1/ack", float64(d.compactions)/acks, int(ss.acks))
	// A restart replays every journal of the dir: report totals per dir.
	m.Set("journal.replay_ms", "ms", sum(l.disk.replayMs), len(l.disk.replayMs))
	m.Set("journal.records", "count", sum(l.disk.records), len(l.disk.records))
	m.Set("persist.snapshots", "1/ack", float64(d.snapshots)/acks, int(ss.acks))
	m.Set("persist.snapshot_bytes_per_ack", "B", float64(d.snapshotBytes)/acks, int(ss.acks))
	m.Set("persist.snapshot_fsync_mean_ms", "ms", ss.histMeanMs("persist_fsync_seconds", `path="snapshot"`), int(d.snapshotFsyncs))
	m.Set("persist.snapshot_decode_ms", "ms", sum(l.disk.decodeMs), len(l.disk.decodeMs))
	m.Set("persist.dir_bytes_per_session", "B", float64(l.disk.dirBytes)/float64(l.disk.sessions), l.disk.sessions)

	var boot []float64
	var restored, lost, mismatched []float64
	for _, r := range b.recoverStats.restarts {
		boot = append(boot, r.bootMs)
		restored = append(restored, float64(r.restored))
		lost = append(lost, float64(r.lost))
		mismatched = append(mismatched, float64(r.mismatched))
	}
	m.Set("recover.boot_ms", "ms", med(boot), len(boot))
	m.Set("recover.sessions_restored", "count", mean(restored), len(restored))
	m.Set("recover.sessions_lost", "count", mean(lost), len(lost))
	m.Set("recover.sessions_mismatched", "count", mean(mismatched), len(mismatched))
	m.Set("advise.rank_mean_ms", "ms", ss.histMeanMs("advise_rank_seconds", ""), 0)
	m.Set("connect.mean_ms", "ms", ss.histMeanMs("connect_seconds", ""), 0)
	uploads := len(b.rec.Samples("http.upload"))
	m.Set("connect.rows", "rows/op", float64(d.connectRows)/float64(max(uploads, 1)), uploads)
	m.Set("trace.plan_coverage", "ratio", med(coverage), len(coverage))
	m.Set("trace.overhead_pct", "%", b.overheadPct, 0)

	for _, dcl := range perLayer() {
		if _, ok := m[dcl.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", dcl.Name)
		}
	}
	if len(m) != len(perLayer()) {
		return nil, fmt.Errorf("%d per-layer metrics computed, %d declared", len(m), len(perLayer()))
	}
	return m, nil
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/mapping"
	"vada/internal/relation"
	"vada/internal/trace"
	"vada/internal/transducer"
	"vada/internal/vadalog"
)

// The wrangle inputs: each client walks its own seeded permutation of a
// pool of scenario seeds, so one golden file covers every workload seed and
// every run sees nearly the same scenarios, in a seed-dependent order.
const (
	wrangleN        = 400 // properties per scenario
	wranglePool     = 8   // scenario seeds 1..wranglePool
	feedbackBudget  = 80  // oracle annotations in step 3
	probePipelines  = 2   // pipelines the traced run re-runs with layer probes
	payAsYouGoSteps = 4
)

var stepNames = [payAsYouGoSteps]string{"bootstrap", "data-context", "feedback", "user-context"}

// scenarioInput is one generated scenario and the pool seed it came from.
type scenarioInput struct {
	seed int64
	sc   *datagen.Scenario
}

// scenarioConfig is the datagen configuration of pool seed s.
func scenarioConfig(s int64) datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.Seed = s
	cfg.NProperties = wrangleN
	return cfg
}

// buildWrangleInputs generates each client's scenario sequence: a seeded
// permutation of the pool, which the client cycles through.
func buildWrangleInputs(seed int64) [][]scenarioInput {
	out := make([][]scenarioInput, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		for _, i := range rng.Perm(wranglePool) {
			s := int64(i + 1)
			out[c] = append(out[c], scenarioInput{seed: s, sc: datagen.Generate(scenarioConfig(s))})
		}
	}
	return out
}

// goldenEntry is the expected final result of one pool scenario.
type goldenEntry struct {
	Digest        string  `json:"digest"`
	Rows          int     `json:"rows"`
	F1            float64 `json:"f1"`
	CellAccuracy  float64 `json:"cell_accuracy"`
	ValueAccuracy float64 `json:"value_accuracy"`
}

type goldenFile struct {
	N         int                    `json:"n"`
	Budget    int                    `json:"feedback_budget"`
	Scenarios map[string]goldenEntry `json:"scenarios"`
}

// goldenPath is the golden file next to the benchmark's sources.
func goldenPath() string { return filepath.Join("perfbench", "golden", "wrangle.json") }

func readGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if g.N != wrangleN || g.Budget != feedbackBudget || len(g.Scenarios) != wranglePool {
		return nil, fmt.Errorf("%s is for n=%d budget=%d pool=%d; rerun with -update-golden",
			path, g.N, g.Budget, len(g.Scenarios))
	}
	return &g, nil
}

// writeGolden runs every pool scenario once and records its final result.
func writeGolden(ctx context.Context, path string) error {
	g := goldenFile{N: wrangleN, Budget: feedbackBudget, Scenarios: map[string]goldenEntry{}}
	for s := int64(1); s <= wranglePool; s++ {
		out, err := runPipeline(ctx, scenarioInput{s, datagen.Generate(scenarioConfig(s))}, nil, nil)
		if err != nil {
			return err
		}
		g.Scenarios[strconv.FormatInt(s, 10)] = out.golden
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultDigest hashes a relation independently of tuple order: the sorted
// per-tuple hashes, with the schema, go through SHA-256.
func resultDigest(r *relation.Relation) string {
	h := sha256.New()
	for _, a := range r.Schema.Attrs {
		h.Write([]byte(a.Name + "\x1e"))
	}
	hs := make([]uint64, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		f := fnv.New64a()
		for _, v := range t {
			f.Write([]byte(v.String()))
			f.Write([]byte{0x1f})
		}
		hs = append(hs, f.Sum64())
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	var buf [8]byte
	for _, x := range hs {
		binary.BigEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// pipelineOut is one scenario's four pay-as-you-go steps.
type pipelineOut struct {
	bootstrapMs, totalMs float64
	golden               goldenEntry
	runs                 [payAsYouGoSteps]runRecord
}

// runRecord is one Wrangler.Run as seen from outside.
type runRecord struct {
	wallMs float64
	steps  []transducer.Step
}

// probe collects the traced run's layer probes for one pipeline: each
// registered transducer's readiness query after each step, and every final
// mapping re-executed on a fresh engine.
type probe struct {
	readinessQueryMs float64
	joinExecMs       float64
	baseExecMs       float64
	tuplesOut        int
}

// runPipeline runs the four pay-as-you-go steps on one scenario, with a
// child span of sp around each call into the core (sp may be nil). With a
// non-nil probe it also times the layer probes, outside the pipeline time.
func runPipeline(ctx context.Context, in scenarioInput, sp *trace.Span, p *probe) (pipelineOut, error) {
	var out pipelineOut
	var probeTime time.Duration
	t0 := time.Now()
	cs := sp.Child("core.BuildScenarioWrangler")
	w := core.BuildScenarioWrangler(in.sc)
	cs.End()
	for i, name := range stepNames {
		switch name {
		case "data-context":
			cs = sp.Child("core.Wrangler.AddDataContext")
			w.AddDataContext(in.sc.AddressRef)
		case "feedback":
			cs = sp.Child("core.OracleFeedback")
			w.AddFeedback(core.OracleFeedback(in.sc, w.Result(), feedbackBudget, in.seed)...)
		case "user-context":
			cs = sp.Child("core.Wrangler.SetUserContext")
			w.SetUserContext(core.CrimeAnalysisUserContext())
		}
		cs.End()
		r0 := time.Now()
		cs = sp.Child("core.Wrangler.Run", "step", name)
		steps, err := w.Run(ctx)
		cs.EndErr(err)
		if err != nil {
			return out, fmt.Errorf("scenario %d %s: %w", in.seed, name, err)
		}
		out.runs[i] = runRecord{wallMs: msSince(r0), steps: steps}
		if i == 0 {
			out.bootstrapMs = msSince(t0)
		}
		if p != nil {
			pt := time.Now()
			engine := vadalog.NewEngine()
			for _, t := range w.Registry().All() {
				q0 := time.Now()
				if _, err := t.Dependency().Satisfied(w.KB, engine); err != nil {
					return out, fmt.Errorf("readiness of %s: %w", t.Name(), err)
				}
				p.readinessQueryMs += msSince(q0)
			}
			probeTime += time.Since(pt)
		}
	}
	out.totalMs = msSince(t0) - float64(probeTime.Nanoseconds())/1e6
	res := w.ResultClean()
	if res == nil {
		return out, fmt.Errorf("scenario %d: no result after four steps", in.seed)
	}
	score := in.sc.Oracle.ScoreResult(res)
	out.golden = goldenEntry{Digest: resultDigest(res), Rows: score.Rows, F1: score.F1,
		CellAccuracy: score.CellAccuracy, ValueAccuracy: score.ValueAccuracy}
	if p != nil {
		if err := reexecMappings(w, p); err != nil {
			return out, err
		}
	}
	return out, nil
}

// reexecMappings runs each final mapping through mapping.Execute with a
// fresh Vadalog engine, timing join and base mappings apart.
func reexecMappings(w *core.Wrangler, p *probe) error {
	srcs := map[string]*relation.Relation{}
	for _, name := range w.KB.RelationNames(core.RelSourcePrefix) {
		if rel := w.KB.Relation(name); rel != nil {
			srcs[strings.TrimPrefix(name, core.RelSourcePrefix)] = rel
		}
	}
	for _, m := range w.Mappings() {
		t0 := time.Now()
		res, err := mapping.Execute(m, srcs, vadalog.NewEngine())
		if err != nil {
			return fmt.Errorf("re-executing %s: %w", m.ID, err)
		}
		if len(m.JoinSources) > 0 {
			p.joinExecMs += msSince(t0)
		} else {
			p.baseExecMs += msSince(t0)
		}
		p.tuplesOut += res.Cardinality()
	}
	return nil
}

// checkGolden compares a pipeline's final result with the golden file.
func (b *bench) checkGolden(in scenarioInput, out pipelineOut) error {
	want, ok := b.golden.Scenarios[strconv.FormatInt(in.seed, 10)]
	if !ok {
		return fmt.Errorf("scenario %d: not in golden", in.seed)
	}
	if out.golden != want {
		b.incorrect.Store(true)
		return fmt.Errorf("scenario %d: result %+v, golden %+v", in.seed, out.golden, want)
	}
	return nil
}

// wrangleStats is what one wrangle phase measured.
type wrangleStats struct {
	pipelines int
	elapsed   time.Duration
	allocMB   float64
	gcCycles  uint32
}

// wranglePhase runs n pipelines closed-loop, split across the clients;
// each client goes on along its own scenario sequence. Samples go to rec;
// lay (nil when untraced) gets the spans and per-step records.
func (b *bench) wranglePhase(ctx context.Context, n int, rec *Recorder, lay *layers) wrangleStats {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var st wrangleStats
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seq []scenarioInput, next *int, todo int) {
			defer wg.Done()
			for ; todo > 0; todo-- {
				in := seq[*next%len(seq)]
				*next++
				span := lay.root("wrangle.pipeline", "scenario", strconv.FormatInt(in.seed, 10))
				t0 := time.Now()
				out, err := runPipeline(ctx, in, span, nil)
				if err == nil {
					err = b.checkGolden(in, out)
				}
				span.EndErr(err)
				rec.Observe("wrangle.pipeline", t0, err)
				if err != nil {
					b.failure(err)
					continue
				}
				rec.Sample("pipeline_ms", out.totalMs)
				rec.Sample("bootstrap_ms", out.bootstrapMs)
				lay.addPipeline(out)
				mu.Lock()
				st.pipelines++
				mu.Unlock()
			}
		}(b.wrangleIn[c], &b.wrangleNext[c], clientShare(n, c))
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	st.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	st.gcCycles = ms1.NumGC - ms0.NumGC
	return st
}

// add folds a later slice into st.
func (st *wrangleStats) add(o wrangleStats) {
	st.pipelines += o.pipelines
	st.elapsed += o.elapsed
	st.allocMB += o.allocMB
	st.gcCycles += o.gcCycles
}

// wrangle runs one slice of the wrangle phase: n pipelines.
func (b *bench) wrangle(ctx context.Context, n int) error {
	b.wrangleStats.add(b.wranglePhase(ctx, n, b.rec, b.layers))
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return err
	}
	b.wrangleRSS = rss
	return nil
}

// wrangleProbes re-runs a few pipelines with the traced run's layer
// probes. The probes perturb timing, so they run on their own after the
// measured phase, on client 0's first scenarios.
func (b *bench) wrangleProbes(ctx context.Context) {
	for i := 0; i < probePipelines; i++ {
		in := b.wrangleIn[0][i%len(b.wrangleIn[0])]
		p := &probe{}
		t0 := time.Now()
		out, err := runPipeline(ctx, in, nil, p)
		if err == nil {
			err = b.checkGolden(in, out)
		}
		b.rec.Observe("wrangle.probe", t0, err)
		if err != nil {
			b.failure(err)
			continue
		}
		b.layers.addProbe(p)
	}
}

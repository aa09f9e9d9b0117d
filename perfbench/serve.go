package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"mime/multipart"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vada/internal/trace"
)

// serveSizes are the scenario sizes of server sessions.
var serveSizes = []int{30, 60}

// sessionSize is the scenario size of pool seed s: three small sessions to
// each large one, so each latency quantile falls inside one size's cluster
// instead of on the edge between two equal halves.
func sessionSize(s int) int {
	if s%4 == 0 {
		return serveSizes[1]
	}
	return serveSizes[0]
}

// sessionPool is how many scenario seeds (1..sessionPool) server sessions
// are drawn from. A client walks a seeded permutation of the pool, so every
// whole number of passes over the pool sees the same scenarios, in a
// seed-dependent order.
const sessionPool = 8

// csvRows is the row count of the serve script's CSV upload.
const csvRows = 12

// planShapes are the three plans of the serve script, run after a
// synchronous bootstrap. The feedback stage runs synchronously on its own:
// its cost is bimodal across scenarios, and inside a plan it would put the
// plan quantiles on the edge between the two modes.
var planShapes = []string{
	`{"stages":[{"stage":"data-context"}]}`,
	`{"stages":[{"stage":"user-context","payload":{"model":"crime"}},{"stage":"quality-report"}]}`,
	`{"stages":[{"stage":"export"}]}`,
}

// sseClient opens each event stream on a connection of its own. A stream is
// closed without draining, which ends its connection; on the shared client
// that would cost the next ordinary request a fresh connection.
var sseClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Minute}

// pollInterval is the wait between polls of a run resource.
const pollInterval = 5 * time.Millisecond

// serveClient runs the serve script against one server. Every session it
// touches is one it created, so its acknowledged writes are fixed by its
// seed.
type serveClient struct {
	b    *bench
	base string
	rng  *rand.Rand
	perm []int // permutation of the session pool
	id   int
	rec  *Recorder
	lay  *layers // nil when untraced
	// acks counts acknowledged state changes (201, 200 or 202 answers to
	// writes); ops counts completed logical operations.
	acks, ops int64
	polls     int64
	plans     int64
	iter      int
	rejected  int64
	traceIDs  []string
}

// req makes one request as http op class op, under a client span when
// traced. It records the request's latency and returns its outcome.
func (c *serveClient) req(op, method, path string, body []byte, ctype string, want int) (int, []byte, http.Header, error) {
	sp := c.lay.root("client."+op, "client", strconv.Itoa(c.id))
	// Writes carry the span's trace context, so the server's spans for
	// them join the client's trace; reads stay unsampled, which keeps the
	// server's bounded trace store from evicting the writes' trees.
	var hdr map[string]string
	if sp != nil && method != http.MethodGet {
		hdr = map[string]string{"Traceparent": sp.Traceparent()}
	}
	t0 := time.Now()
	status, data, h, err := call(method, c.base+path, body, ctype, hdr)
	if err == nil {
		err = expect(method, path, status, want, data)
	}
	if status == http.StatusTooManyRequests {
		c.rejected++
	}
	sp.EndErr(err)
	if err == nil {
		c.rec.Sample("http."+op, msSince(t0))
		if method != http.MethodGet && sp != nil {
			c.traceIDs = append(c.traceIDs, sp.TraceID())
		}
	}
	return status, data, h, err
}

// op times one logical operation: fn's error counts it failed.
func (c *serveClient) op(name string, fn func() error) bool {
	t0 := time.Now()
	err := fn()
	c.rec.Observe("serve."+name, t0, err)
	if err != nil {
		c.b.failure(fmt.Errorf("serve client %d %s: %w", c.id, name, err))
		return false
	}
	c.ops++
	return true
}

// iteration runs the script once over a fresh session.
func (c *serveClient) iteration() {
	// The seed orders the pool; each pool seed has its fixed size.
	seed := c.perm[c.iter%len(c.perm)] + 1
	n := sessionSize(seed)
	c.iter++
	// A second session is created and deleted untouched alongside the
	// scripted one: it doubles the create and delete samples per
	// iteration at little cost.
	idle, ok := c.create(n, seed)
	if !ok {
		return
	}
	defer c.remove(idle)
	id, ok := c.create(n, seed)
	if !ok {
		return
	}
	s := "/sessions/" + id
	// stage_p50_ms times the synchronous bootstrap only, for the same
	// reason the feedback stage is kept out of the plans.
	c.op("stage", func() error {
		t0 := time.Now()
		if err := c.stage(s, "bootstrap", []byte(`{}`), "stage"); err != nil {
			return err
		}
		c.rec.Sample("stage_ms", msSince(t0))
		return nil
	})
	for _, shape := range planShapes {
		c.op("plan", func() error { return c.plan(s, shape) })
	}
	c.op("feedback", func() error { return c.stage(s, "feedback", []byte(`{"budget":20}`), "feedback") })
	c.op("advise", func() error { return c.advise(s) })
	// read_* covers five state reads, five result pages and five SSE
	// history reads per iteration: reads are cheap, and their p90 needs
	// the samples.
	for range 5 {
		c.reads(s)
	}
	c.op("upload", func() error { return c.upload(s) })
	c.op("roundtrip", func() error { return c.roundtrip(s) })
	c.remove(id)
}

// create makes a session; it reports false when that failed.
func (c *serveClient) create(n, seed int) (string, bool) {
	var id string
	ok := c.op("create", func() error {
		_, body, _, err := c.req("create", "POST", "/sessions",
			[]byte(fmt.Sprintf(`{"name":"bench","n":%d,"seed":%d}`, n, seed)), "application/json", http.StatusCreated)
		if err != nil {
			return err
		}
		c.acks++
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
			return fmt.Errorf("create: no id in %q", body)
		}
		id = out.ID
		return nil
	})
	return id, ok
}

// remove deletes a session.
func (c *serveClient) remove(id string) {
	c.op("delete", func() error {
		_, _, _, err := c.req("delete", "DELETE", "/sessions/"+id, nil, "", http.StatusNoContent)
		if err == nil {
			c.acks++
		}
		return err
	})
}

// reads reads the session state, a result page and the SSE history, and
// resumes the SSE stream from the middle of that history.
func (c *serveClient) reads(s string) {
	c.op("read", func() error {
		_, body, _, err := c.req("state", "GET", s, nil, "", http.StatusOK)
		if err != nil {
			return err
		}
		var state struct {
			Events []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal(body, &state); err != nil {
			return fmt.Errorf("decoding session state: %w", err)
		}
		c.rec.Sample("events_per_session", float64(len(state.Events)))
		return nil
	})
	c.op("read", func() error {
		_, _, _, err := c.req("result", "GET", s+"/result?limit=20&offset=10", nil, "", http.StatusOK)
		return err
	})
	var ids []int
	c.op("read", func() error {
		var err error
		if ids, err = c.sseRead(s, ""); err == nil && len(ids) < 2 {
			err = fmt.Errorf("sse: %d events in history, want at least 2", len(ids))
		}
		return err
	})
	if len(ids) >= 2 {
		c.op("resume", func() error { return c.sseResume(s, ids) })
	}
}

// plan submits a plan and polls its run until it is terminal; the plan
// time runs from the 202 to the terminal answer.
func (c *serveClient) plan(s, shape string) error {
	_, body, hdr, err := c.req("plan_submit", "POST", s+"/plans", []byte(shape), "application/json", http.StatusAccepted)
	if err != nil {
		return err
	}
	c.acks++
	t0 := time.Now()
	loc := hdr.Get("Location")
	if !strings.HasPrefix(loc, "/api/v1/") {
		return fmt.Errorf("plan: Location %q in answer %q", loc, body)
	}
	loc = strings.TrimPrefix(loc, "/api/v1")
	for {
		_, body, _, err := c.req("plan_poll", "GET", loc, nil, "", http.StatusOK)
		if err != nil {
			return err
		}
		c.polls++
		var run struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &run); err != nil {
			return fmt.Errorf("decoding run: %w", err)
		}
		switch run.State {
		case "succeeded":
			c.plans++
			c.rec.Sample("plan_ms", msSince(t0))
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("plan %s ended %s: %s", shape, run.State, run.Error)
		}
		if time.Since(t0) > time.Minute {
			return fmt.Errorf("plan %s not terminal after a minute", shape)
		}
		time.Sleep(pollInterval)
	}
}

// stage invokes one stage synchronously.
func (c *serveClient) stage(s, name string, payload []byte, op string) error {
	_, _, _, err := c.req(op, "POST", s+"/stages/"+name, payload, "application/json", http.StatusOK)
	if err != nil {
		return err
	}
	c.acks++
	return nil
}

// advise fetches the ranked suggestions and accepts the first
// feedback-batch action verbatim.
func (c *serveClient) advise(s string) error {
	_, body, _, err := c.req("suggestions", "GET", s+"/suggestions", nil, "", http.StatusOK)
	if err != nil {
		return err
	}
	var out struct {
		Suggestions []struct {
			Action *struct {
				Stage   string          `json:"stage"`
				Payload json.RawMessage `json:"payload"`
			} `json:"action"`
		} `json:"suggestions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("decoding suggestions: %w", err)
	}
	for _, sg := range out.Suggestions {
		if sg.Action != nil && sg.Action.Stage == "feedback-batch" {
			return c.stage(s, "feedback-batch", sg.Action.Payload, "feedback_batch")
		}
	}
	return fmt.Errorf("no feedback-batch suggestion among %d", len(out.Suggestions))
}

// sseResume resumes the event stream after the middle of the history ids
// and checks it carries exactly the later event IDs.
func (c *serveClient) sseResume(s string, ids []int) error {
	from := ids[len(ids)/2]
	resumed, err := c.sseRead(s, strconv.Itoa(from))
	if err != nil {
		return err
	}
	var want []int
	for _, id := range ids {
		if id > from {
			want = append(want, id)
		}
	}
	if fmt.Sprint(resumed) != fmt.Sprint(want) {
		c.b.incorrect.Store(true)
		return fmt.Errorf("sse resume after %d gave ids %v, want %v", from, resumed, want)
	}
	return nil
}

// sseRead opens the event stream and reads the replayed history, which
// ends at the server's ": connected" comment; it returns the event IDs.
func (c *serveClient) sseRead(s, lastID string) ([]int, error) {
	sp := c.lay.root("client.sse", "client", strconv.Itoa(c.id))
	t0 := time.Now()
	ids, err := func() ([]int, error) {
		req, err := http.NewRequest(http.MethodGet, c.base+s+"/events", nil)
		if err != nil {
			return nil, err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := sseClient.Do(req)
		if err != nil {
			return nil, err
		}
		// The stream stays open for live events: close it once the
		// history is read, without draining.
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("events: status %d", resp.StatusCode)
		}
		var ids []int
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == ": connected" {
				return ids, nil
			}
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				id, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("events: bad id %q", v)
				}
				ids = append(ids, id)
			}
		}
		return nil, fmt.Errorf("events: stream ended before \": connected\": %v", sc.Err())
	}()
	sp.EndErr(err)
	if err == nil {
		ms := msSince(t0)
		c.rec.Sample("http.sse", ms)
	}
	return ids, err
}

// upload posts a seeded CSV file and streams the relation back as CSV,
// which must equal the upload byte for byte.
func (c *serveClient) upload(s string) error {
	rel := fmt.Sprintf("bench%d", c.id)
	var csv bytes.Buffer
	csv.WriteString("street,postcode,price\n")
	for i := 0; i < csvRows; i++ {
		fmt.Fprintf(&csv, "%d bench lane,BN%d %dAA,%d\n", i+1, c.rng.Intn(90), 1+c.rng.Intn(9), 50000+c.rng.Intn(100000))
	}
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	fw, err := mw.CreateFormFile("file", rel+".csv")
	if err != nil {
		return err
	}
	fw.Write(csv.Bytes())
	if err := mw.Close(); err != nil {
		return err
	}
	if _, _, _, err := c.req("upload", "POST", s+"/upload", form.Bytes(), mw.FormDataContentType(), http.StatusOK); err != nil {
		return err
	}
	c.acks++
	_, got, _, err := c.req("export_csv", "GET", s+"/export/"+rel+"?format=csv", nil, "", http.StatusOK)
	if err != nil {
		return err
	}
	// The export streams rows in the relation's canonical order, not the
	// upload's: compare the header and the multiset of rows.
	if canonicalCSV(got) != canonicalCSV(csv.Bytes()) {
		c.b.incorrect.Store(true)
		return fmt.Errorf("csv export of %s differs from the upload:\n%s\nvs\n%s", rel, got, csv.Bytes())
	}
	return nil
}

// canonicalCSV is a CSV text with its data rows sorted.
func canonicalCSV(b []byte) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}

// roundtrip exports the session, deletes it, imports the export and
// exports again: the two exports must be byte-identical.
func (c *serveClient) roundtrip(s string) error {
	_, snap, _, err := c.req("export", "GET", s+"/export", nil, "", http.StatusOK)
	if err != nil {
		return err
	}
	if _, _, _, err := c.req("delete", "DELETE", s, nil, "", http.StatusNoContent); err != nil {
		return err
	}
	c.acks++
	if _, _, _, err := c.req("import", "POST", "/sessions/import", snap, "application/octet-stream", http.StatusCreated); err != nil {
		return err
	}
	c.acks++
	_, again, _, err := c.req("export", "GET", s+"/export", nil, "", http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.Equal(snap, again) {
		c.b.incorrect.Store(true)
		return fmt.Errorf("export after import differs (%d vs %d bytes)", len(again), len(snap))
	}
	return nil
}

// serveStats is what one serve phase measured.
type serveStats struct {
	elapsed                 time.Duration
	ops, acks, polls, plans int64
	rejected                int64
	before, after           metricz
}

// newServeClients makes the serve clients of a run; they keep their place
// in the script's sequences across the run's serve slices.
func (b *bench) newServeClients(rec *Recorder, lay *layers, seedOffset int64) []*serveClient {
	cs := make([]*serveClient, clients)
	for i := range cs {
		rng := rand.New(rand.NewSource(b.opts.seed*104729 + seedOffset + int64(i)))
		cs[i] = &serveClient{b: b, id: i, rec: rec, lay: lay, rng: rng, perm: rng.Perm(sessionPool)}
	}
	return cs
}

// servePhase runs n iterations of the script closed-loop against the
// serving server, split across the clients.
func (b *bench) servePhase(n int, cs []*serveClient) (serveStats, error) {
	var st serveStats
	before, err := b.srv.metricz()
	if err != nil {
		return st, err
	}
	start := time.Now()
	var counts [5]int64
	for _, c := range cs {
		c.base = b.srv.base
		counts[0] -= c.ops
		counts[1] -= c.acks
		counts[2] -= c.polls
		counts[3] -= c.plans
		counts[4] -= c.rejected
	}
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(todo int) {
			defer wg.Done()
			for ; todo > 0; todo-- {
				c.iteration()
			}
		}(clientShare(n, i))
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	after, err := b.srv.metricz()
	if err != nil {
		return st, err
	}
	st.before, st.after = before, after
	for _, c := range cs {
		counts[0] += c.ops
		counts[1] += c.acks
		counts[2] += c.polls
		counts[3] += c.plans
		counts[4] += c.rejected
	}
	st.ops, st.acks, st.polls, st.plans, st.rejected = counts[0], counts[1], counts[2], counts[3], counts[4]
	if st.acks == 0 {
		return st, fmt.Errorf("no write acknowledged in %d iterations", n)
	}
	return st, nil
}

// add folds a later slice into st. The serving server does no other work
// between slices, so its counter delta runs from the first slice's start
// to the last one's end.
func (st *serveStats) add(o serveStats) {
	if st.elapsed == 0 {
		st.before = o.before
	}
	st.after = o.after
	st.elapsed += o.elapsed
	st.ops += o.ops
	st.acks += o.acks
	st.polls += o.polls
	st.plans += o.plans
	st.rejected += o.rejected
}

// serve runs one slice of the serve phase: n script iterations.
func (b *bench) serve(_ context.Context, n int) error {
	if b.serveClients == nil {
		b.serveClients = b.newServeClients(b.rec, b.layers, 0)
	}
	st, err := b.servePhase(n, b.serveClients)
	if err != nil {
		return err
	}
	b.serveStats.add(st)
	if b.serveRSS, err = b.srv.peakRSSMB(); err != nil {
		return err
	}
	// Fetch the slice's server span trees before the store evicts them.
	for _, c := range b.serveClients {
		if err := b.layers.fetchServerTrees(b.srv, c.traceIDs); err != nil {
			return err
		}
		c.traceIDs = nil
	}
	return nil
}

// fetchTree is GET /api/v1/traces/{id}.
func fetchTree(srv *child, id string) ([]*trace.Node, error) {
	status, body, _, err := call(http.MethodGet, srv.base+"/traces/"+id, nil, "", nil)
	if err == nil {
		err = expect("GET", "/traces/"+id, status, http.StatusOK, body)
	}
	if err != nil {
		return nil, err
	}
	var out struct {
		Spans []*trace.Node `json:"spans"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("decoding trace %s: %w", id, err)
	}
	return out.Spans, nil
}

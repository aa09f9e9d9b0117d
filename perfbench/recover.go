package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Session states the recover set-up leaves behind before the kill.
const (
	statePlanned   = "planned"   // plans run to completion
	stateJournaled = "journaled" // synchronous stages, journal not compacted
	stateIdle      = "idle"      // created, never touched again
	stateImported  = "imported"  // exported, deleted and imported back
	stateDeleted   = "deleted"   // deleted before the kill: must stay gone
)

// sessionsPerState is how many sessions the set-up leaves in each state.
const sessionsPerState = 2

var crashStates = []string{statePlanned, stateJournaled, stateIdle, stateImported, stateDeleted}

// crashedSession is one session of the crashed data dir and the answers it
// gave before the kill.
type crashedSession struct {
	id, state string
	captures  []capture
}

type capture struct {
	path   string
	status int
	body   []byte
}

// crashDir is a data dir left by a SIGKILLed server.
type crashDir struct {
	dir      string
	sessions []crashedSession
}

// prepareCrash drives a server over a fresh data dir into the crash
// states, captures every live session's GETs, and SIGKILLs it.
func (b *bench) prepareCrash(dir, logPath string) (*crashDir, error) {
	srv, err := startServer(b.opts.server, dir, logPath)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	cd := &crashDir{dir: dir}
	do := func(method, path string, body []byte, want int) ([]byte, error) {
		status, data, _, err := call(method, srv.base+path, body, "application/json", nil)
		if err == nil {
			err = expect(method, path, status, want, data)
		}
		return data, err
	}
	// Slot k holds the k-th session of its state: scenario seed k+1, the
	// two sizes alternating. The workload seed orders the slots' creation,
	// so the crashed dir's contents and restore cost stay the same.
	type slot struct {
		state   string
		n, seed int
	}
	var slots []slot
	for _, state := range crashStates {
		for i := 0; i < sessionsPerState; i++ {
			slots = append(slots, slot{state, serveSizes[i%len(serveSizes)], len(slots) + 1})
		}
	}
	rng := rand.New(rand.NewSource(b.opts.seed*15485863 + 1))
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for _, sl := range slots {
		state := sl.state
		body, err := do("POST", "/sessions", []byte(fmt.Sprintf(`{"name":"crash","n":%d,"seed":%d}`, sl.n, sl.seed)), http.StatusCreated)
		if err != nil {
			return nil, err
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			return nil, fmt.Errorf("decoding created session: %w", err)
		}
		s := "/sessions/" + created.ID
		switch state {
		case statePlanned:
			if _, err = do("POST", s+"/stages/bootstrap", []byte(`{}`), http.StatusOK); err == nil {
				err = b.crashPlan(srv, s)
			}
		case stateJournaled:
			for _, st := range []struct{ name, payload string }{
				{"bootstrap", `{}`}, {"feedback", `{"budget":20}`}, {"user-context", `{"model":"crime"}`},
			} {
				if _, err = do("POST", s+"/stages/"+st.name, []byte(st.payload), http.StatusOK); err != nil {
					break
				}
			}
		case stateImported:
			var snap []byte
			if _, err = do("POST", s+"/stages/bootstrap", []byte(`{}`), http.StatusOK); err == nil {
				snap, err = do("GET", s+"/export", nil, http.StatusOK)
			}
			if err == nil {
				_, err = do("DELETE", s, nil, http.StatusNoContent)
			}
			if err == nil {
				_, err = do("POST", "/sessions/import", snap, http.StatusCreated)
			}
		case stateDeleted:
			if _, err = do("POST", s+"/stages/bootstrap", []byte(`{}`), http.StatusOK); err == nil {
				_, err = do("DELETE", s, nil, http.StatusNoContent)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("preparing %s session: %w", state, err)
		}
		cd.sessions = append(cd.sessions, crashedSession{id: created.ID, state: state})
	}
	for i := range cd.sessions {
		cs := &cd.sessions[i]
		if cs.state == stateDeleted {
			continue
		}
		s := "/sessions/" + cs.id
		for _, path := range []string{s, s + "/result?limit=50", s + "/runs"} {
			status, body, _, err := call(http.MethodGet, srv.base+path, nil, "", nil)
			if err != nil {
				return nil, err
			}
			cs.captures = append(cs.captures, capture{path, status, body})
		}
	}
	return cd, nil
}

// crashPlan runs plan shape 0 on a session to a terminal state.
func (b *bench) crashPlan(srv *child, s string) error {
	c := &serveClient{b: b, base: srv.base, rec: NewRecorder()}
	return c.plan(s, planShapes[0])
}

// restartOutcome is one restart over a copy of the crashed dir.
type restartOutcome struct {
	bootMs, restartMs, rssMB                float64
	restored, lost, mismatched, resurrected int
}

// restart copies the crashed dir, execs a fresh server over the copy,
// times until the session list answers, and classes every session.
func (b *bench) restart(iter int, lay *layers) (restartOutcome, error) {
	var out restartOutcome
	sp := lay.root("recover.restart", "iteration", strconv.Itoa(iter))
	defer sp.End()
	dir := filepath.Join(b.tmp, "recover-run")
	if err := os.RemoveAll(dir); err != nil {
		return out, err
	}
	if err := copyDir(b.crash.dir, dir); err != nil {
		return out, err
	}
	cs := sp.Child("vada-server exec until listed")
	srv, err := startServer(b.opts.server, dir, filepath.Join(b.tmp, "recover-server.log"))
	if err != nil {
		return out, err
	}
	defer srv.kill()
	out.bootMs = srv.bootMs
	var listing struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	for {
		status, body, _, err := call(http.MethodGet, srv.base+"/sessions", nil, "", nil)
		if err == nil && status == http.StatusOK {
			out.restartMs = msSince(srv.started)
			if err := json.Unmarshal(body, &listing); err != nil {
				return out, fmt.Errorf("decoding session list: %w", err)
			}
			break
		}
		if time.Since(srv.started) > 30*time.Second {
			return out, fmt.Errorf("session list not served 30s after exec (status %d, %v)", status, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	cs.End()
	cs = sp.Child("verify sessions")
	defer cs.End()
	listed := map[string]bool{}
	for _, s := range listing.Sessions {
		listed[s.ID] = true
	}
	for _, s := range b.crash.sessions {
		switch {
		case s.state == stateDeleted && listed[s.id]:
			out.resurrected++
			b.failure(fmt.Errorf("restart %d: deleted session %s is back", iter, s.id))
		case s.state == stateDeleted:
		case !listed[s.id]:
			out.lost++
			b.failure(fmt.Errorf("restart %d: %s session %s lost", iter, s.state, s.id))
		default:
			if err := sameAnswers(srv, s); err != nil {
				out.mismatched++
				b.incorrect.Store(true)
				b.failure(fmt.Errorf("restart %d: %s session %s: %w", iter, s.state, s.id, err))
				continue
			}
			out.restored++
		}
	}
	if out.rssMB, err = srv.peakRSSMB(); err != nil {
		return out, err
	}
	return out, nil
}

// sameAnswers re-issues a session's captured GETs and compares bytes.
func sameAnswers(srv *child, cs crashedSession) error {
	for _, c := range cs.captures {
		status, body, _, err := call(http.MethodGet, srv.base+c.path, nil, "", nil)
		if err != nil {
			return err
		}
		if status != c.status || string(body) != string(c.body) {
			return fmt.Errorf("GET %s after restart: status %d (%d bytes), before the kill %d (%d bytes)",
				c.path, status, len(body), c.status, len(c.body))
		}
	}
	return nil
}

// recoverStats is what one recover phase measured.
type recoverStats struct {
	restarts []restartOutcome
}

// recover runs one slice of the recover phase: n restarts over copies of
// the crashed dir.
func (b *bench) recover(_ context.Context, n int) error {
	st, err := b.recoverPhase(n, b.rec, b.layers)
	b.recoverStats.restarts = append(b.recoverStats.restarts, st.restarts...)
	return err
}

func (b *bench) recoverPhase(n int, rec *Recorder, lay *layers) (recoverStats, error) {
	var st recoverStats
	for i := 0; i < n; i++ {
		t0 := time.Now()
		out, err := b.restart(i, lay)
		rec.Observe("recover.restart", t0, err)
		if err != nil {
			return st, err
		}
		rec.Sample("restart_ms", out.restartMs)
		// Every session is one checked operation; lost, mismatched and
		// resurrected ones are failures.
		rec.Count(int64(len(b.crash.sessions)), int64(out.lost+out.mismatched+out.resurrected))
		st.restarts = append(st.restarts, out)
	}
	return st, nil
}

// copyDir copies a data dir: its regular files and subdirectories.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		return copyFile(path, target, info.Mode().Perm())
	})
}

func copyFile(src, dst string, perm os.FileMode) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

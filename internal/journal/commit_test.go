package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vada/internal/metrics"
	"vada/internal/session"
)

// stageRec builds a minimal deterministic stage record (At fixed so file
// bytes are reproducible across writers).
func stageRec(seq int) *Record {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second)
	return &Record{At: at, Stage: &StageRecord{
		Event: session.Event{Seq: seq, Type: session.EventStage,
			Stage: session.StageBootstrap, Steps: seq, At: at},
	}}
}

// journalFsyncs reads the journal fsync count and the batch-size
// histogram's count and sum from reg.
func journalFsyncs(reg *metrics.Registry) (fsyncs, batches int64, batched float64) {
	snap := reg.Snapshot()
	h := snap.Histograms["persist_group_commit_batch_size"]
	return snap.Counters[metrics.Name("persist_fsync_total", "path", "journal")], h.Count, h.Sum
}

// plainJournal writes stageRec(1..n) through Append, one fsync each, and
// returns the file's bytes.
func plainJournal(t *testing.T, n int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plain.vjournal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := w.Append(stageRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCommitCoalescesDeferredWaits pins the commit path's one saving: N
// records appended with deferred waits cost exactly one journal fsync,
// whether the waits then run in sequence (a plan's flush) or concurrently.
// The fsync's batch observes all N records, and the file is byte-identical
// to N plain Appends.
func TestCommitCoalescesDeferredWaits(t *testing.T) {
	const n = 6
	want := plainJournal(t, n)
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.vjournal")
			w, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			w.SetMetrics(reg)
			waits := make([]func() error, n)
			for i := range waits {
				if waits[i], err = w.AppendCommit(stageRec(i + 1)); err != nil {
					t.Fatal(err)
				}
			}
			if fsyncs, _, _ := journalFsyncs(reg); fsyncs != 0 {
				t.Fatalf("AppendCommit fsynced %d times before any wait", fsyncs)
			}
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i, wait := range waits {
				if !concurrent {
					errs[i] = wait()
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = wait()
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("wait %d: %v", i+1, err)
				}
			}
			fsyncs, batches, batched := journalFsyncs(reg)
			if fsyncs != 1 || batches != 1 || batched != n {
				t.Fatalf("fsyncs %d, batches %d observing %v records; want 1, 1, %d",
					fsyncs, batches, batched, n)
			}
			_, bytes := w.Stats()
			if got := reg.Counter("persist_journal_bytes_total").Value(); got != bytes {
				t.Fatalf("persist_journal_bytes_total = %d, want %d", got, bytes)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if fsyncs, _, _ := journalFsyncs(reg); fsyncs != 1 {
				t.Fatalf("Close of a durable journal fsynced again: %d fsyncs", fsyncs)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("coalesced journal differs from plain appends (%d vs %d bytes)",
					len(got), len(want))
			}
		})
	}
}

// TestGroupCommitAmortisesFsyncs drives several writers, each from several
// concurrent appenders that append a run of records and then wait for
// each (the plan shape, many sessions per node), and checks the point:
// every append is durable and replayable, yet a wait whose record an
// earlier fsync covered issues none, so each appender costs at most one
// fsync. Every record is counted in exactly one fsync's batch.
func TestGroupCommitAmortisesFsyncs(t *testing.T) {
	const writers, appenders, appends = 4, 4, 10
	dir := t.TempDir()
	reg := metrics.NewRegistry()

	ws := make([]*Writer, writers)
	for i := range ws {
		w, _, err := Open(filepath.Join(dir, fmt.Sprintf("s%d.vjournal", i)))
		if err != nil {
			t.Fatal(err)
		}
		w.SetMetrics(reg)
		ws[i] = w
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers*appenders*appends)
	for _, w := range ws {
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(w *Writer) {
				defer wg.Done()
				var waits []func() error
				for i := 1; i <= appends; i++ {
					wait, err := w.AppendCommit(stageRec(i))
					if err != nil {
						errs <- err
						return
					}
					waits = append(waits, wait)
				}
				for _, wait := range waits {
					if err := wait(); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	fsyncs, _, batched := journalFsyncs(reg)
	total := writers * appenders * appends
	if fsyncs == 0 || fsyncs > writers*appenders {
		t.Fatalf("fsyncs = %d for %d appends by %d appenders; waits did not coalesce",
			fsyncs, total, writers*appenders)
	}
	if batched != float64(total) {
		t.Fatalf("batch-size histogram observed %v records, want %d", batched, total)
	}
	var fileBytes int64
	for i, w := range ws {
		_, b := w.Stats()
		fileBytes += b
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, err := Open(filepath.Join(dir, fmt.Sprintf("s%d.vjournal", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != appenders*appends {
			t.Fatalf("writer %d: replayed %d records, want %d", i, len(recs), appenders*appends)
		}
	}
	if got := reg.Counter("persist_journal_bytes_total").Value(); got != fileBytes {
		t.Fatalf("persist_journal_bytes_total = %d, want %d", got, fileBytes)
	}
}

// TestGroupCommitByteIdentical pins that coalescing changes only fsync
// scheduling, never bytes: records whose waits run late, in reverse order,
// produce the same file as one fsynced Append each.
func TestGroupCommitByteIdentical(t *testing.T) {
	const n = 10
	path := filepath.Join(t.TempDir(), "deferred.vjournal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var waits []func() error
	for i := 1; i <= n; i++ {
		wait, err := w.AppendCommit(stageRec(i))
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	for i := len(waits) - 1; i >= 0; i-- {
		if err := waits[i](); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := plainJournal(t, n); string(got) != string(want) {
		t.Fatalf("deferred-wait journal differs from plain appends (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestGroupCommitDeferredWaitDrain pins waits left pending across Reset and
// Close (plan batching defers them): both make the written records durable
// first, and the waits then resolve from that fsync without touching the
// file again — even when a record of the new generation already sits at
// the offset the old wait remembers.
func TestGroupCommitDeferredWaitDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.vjournal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	wait1, err := w.AppendCommit(stageRec(1))
	if err != nil {
		t.Fatal(err)
	}
	wait2, err := w.AppendCommit(stageRec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if fsyncs, _, batched := journalFsyncs(reg); fsyncs != 1 || batched != 2 {
		t.Fatalf("Reset made %d fsyncs covering %v records, want 1 covering 2", fsyncs, batched)
	}
	if recs, bytes := w.Stats(); recs != 0 || bytes != 0 {
		t.Fatalf("journal not empty after reset: %d records, %d bytes", recs, bytes)
	}
	// The new generation's first two records end where the old ones did.
	// The old waits resolve from Reset's fsync, not by covering these.
	waitNew1, err := w.AppendCommit(stageRec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitNew2, err := w.AppendCommit(stageRec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait1(); err != nil {
		t.Fatalf("wait1 after reset: %v", err)
	}
	if err := wait2(); err != nil {
		t.Fatalf("wait2 after reset: %v", err)
	}
	if fsyncs, _, _ := journalFsyncs(reg); fsyncs != 1 {
		t.Fatalf("waits of a retired generation fsynced the new one: %d fsyncs", fsyncs)
	}
	if err := waitNew2(); err != nil {
		t.Fatal(err)
	}
	if err := waitNew1(); err != nil {
		t.Fatal(err)
	}
	if fsyncs, _, _ := journalFsyncs(reg); fsyncs != 2 {
		t.Fatalf("new generation's waits: %d fsyncs in total, want 2", fsyncs)
	}

	// Close makes the pending record durable too.
	wait3, err := w.AppendCommit(stageRec(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := wait3(); err != nil {
		t.Fatalf("wait3 after close: %v", err)
	}
	if fsyncs, _, _ := journalFsyncs(reg); fsyncs != 3 {
		t.Fatalf("after close: %d fsyncs in total, want 3", fsyncs)
	}
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after close, want 3", len(recs))
	}
}

// TestGroupCommitConcurrentClose races Close against in-flight appends:
// each append either fails because the writer is closed or is durable —
// its wait returns nil and its record replays. Nothing is stranded.
func TestGroupCommitConcurrentClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.vjournal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		acked int
		wg    sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				wait, err := w.AppendCommit(stageRec(1))
				if err != nil {
					return // closed: refused, never half-written
				}
				if err := wait(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				mu.Lock()
				acked++
				mu.Unlock()
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != acked {
		t.Fatalf("replayed %d records, acknowledged %d", len(recs), acked)
	}
}

// TestSyncFailurePoisons pins the failure half of the crash contract: a
// failed fsync fails every wait it did not cover, poisons the writer
// against further appends, and only Reset revives it. Waits whose records
// an earlier fsync covered still succeed.
func TestSyncFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.vjournal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(stageRec(1)); err != nil {
		t.Fatal(err)
	}
	waitDurable, _ := w.AppendCommit(stageRec(2))
	if err := waitDurable(); err != nil {
		t.Fatal(err)
	}
	wait3, err := w.AppendCommit(stageRec(3))
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a closed descriptor so the next fsync (and the rewind) fail.
	good := w.f
	bad, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	bad.Close()
	w.mu.Lock()
	w.f = bad
	w.mu.Unlock()
	if err := wait3(); err == nil {
		t.Fatal("wait acknowledged a record whose fsync failed")
	}
	w.mu.Lock()
	w.f = good
	w.mu.Unlock()
	if err := wait3(); err == nil {
		t.Fatal("repeated wait after a failed fsync returned nil")
	}
	if err := waitDurable(); err != nil {
		t.Fatalf("wait of an already durable record: %v", err)
	}
	if _, err := w.AppendCommit(stageRec(4)); err == nil {
		t.Fatal("poisoned writer accepted an append")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(stageRec(1)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
}

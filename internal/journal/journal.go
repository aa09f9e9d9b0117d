// Package journal is the incremental half of the durability subsystem: a
// per-session, append-only write-ahead journal that records what changed —
// one framed record per completed stage or terminal run — so that making a
// session durable costs O(delta) instead of rewriting the whole snapshot
// envelope every time a run completes.
//
// On disk a journal is a sibling of the session's snapshot:
//
//	<data-dir>/<id>.vsnap     last full snapshot (persist envelope, format v1)
//	<data-dir>/<id>.vjournal  mutations since that snapshot (this package)
//
// The journal file is an 8-byte magic and a format-version byte, followed
// by records in the same frame wire form as the envelope's sections —
// kind | u32 length | JSON payload | CRC-32(payload) — with every record
// fsynced before it is acknowledged. Records appended to one file before
// its next fsync share that fsync, without weakening the durability point.
// Recovery composes the snapshot with a replay of the journal's valid
// prefix: a torn tail (the record being appended when the power went) is
// truncated, not fatal, and a compaction pass folds the journal back into
// a fresh snapshot and resets it to empty.
//
// Lifecycle:
//
//	append (per stage / terminal run)
//	   └─ thresholds reached (records, bytes) or evict/shutdown
//	       └─ compact: write fresh .vsnap, truncate .vjournal
//	           └─ crash between the two? replay is convergent: records the
//	              snapshot already folded in are skipped by sequence/ID.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/metrics"
	"vada/internal/persist"
	"vada/internal/runs"
	"vada/internal/session"
)

// Journal header errors. Record-level damage is never an error — replay
// falls back to the last valid prefix — but a file whose header is wrong
// was never a journal, and pretending otherwise would silently discard it.
var (
	// ErrBadMagic reports a file that is not a VADA journal at all.
	ErrBadMagic = errors.New("journal: bad magic")

	// ErrBadVersion reports a journal written by an unknown format version.
	ErrBadVersion = errors.New("journal: unsupported format version")
)

// FormatV1 is the current journal format version.
const FormatV1 byte = 1

// magic identifies a journal file; it never changes across versions.
var magic = [8]byte{'V', 'A', 'D', 'A', 'J', 'R', 'N', 'L'}

// HeaderLen is the byte length of the journal header (magic + version).
const HeaderLen = int64(len(magic) + 1)

// Record kinds of the v1 journal layout.
const (
	kindStage byte = 0x01
	kindRun   byte = 0x02
)

// StageRecord is the mutation payload of one completed wrangling stage:
// the typed event (oracle score included), the knowledge-base delta the
// stage produced, the feedback items it added, and the wrangler's
// change-detection fingerprints after it — everything RestoreSession needs
// that a bare event would not carry.
type StageRecord struct {
	// Event is the stage event, Seq assigned.
	Event session.Event `json:"event"`
	// Delta is the knowledge-base mutation log of the stage.
	Delta *kb.Delta `json:"delta,omitempty"`
	// Feedback are the items appended to the wrangler's feedback store
	// during the stage (observed values included), in store order.
	// FeedbackAt is the store index the slice starts at: the store is
	// append-only, so Compose can skip exactly the overlap with items a
	// compaction snapshot already captured mid-stage.
	Feedback   []feedback.Item `json:"feedback,omitempty"`
	FeedbackAt int             `json:"feedback_at,omitempty"`
	// ExecHashes and FusedHash are the change fingerprints after the stage.
	ExecHashes map[string]uint64 `json:"exec_hashes,omitempty"`
	// FusedHash is the fused-union hash after the stage.
	FusedHash uint64 `json:"fused_hash,omitempty"`
}

// Record is one journal entry. Exactly one of Stage and Run is set,
// matching the record's frame kind.
type Record struct {
	// Seq numbers records within one journal file, from 1, with no gaps;
	// replay stops at the first sequence break (damage, not format skew).
	Seq uint64 `json:"seq"`
	// At is when the record was appended.
	At time.Time `json:"at"`
	// Stage is the payload of a stage record.
	Stage *StageRecord `json:"stage,omitempty"`
	// Run is the terminal run snapshot of a run record.
	Run *runs.Run `json:"run,omitempty"`
}

// ReplayResult is what reading a journal yields: the records of the valid
// prefix, where that prefix ends, and whether anything after it had to be
// discarded.
type ReplayResult struct {
	// Records are the valid records, oldest first.
	Records []Record
	// Valid is the byte offset at which the valid prefix ends — the length
	// a recovering writer truncates the file to.
	Valid int64
	// Damaged reports that bytes after Valid failed to parse: a torn tail
	// from a crash mid-append, or corruption. Recovery keeps the prefix.
	Damaged bool
}

// Replay reads a journal stream. Header problems (not a journal at all,
// unknown version, header torn) are errors wrapping the package sentinels;
// from the first record onwards every problem — truncation, checksum
// mismatch, an undecodable payload, an unknown record kind, a sequence
// break — ends the replay at the last valid record instead of failing,
// because the append-only write path makes a damaged suffix expected
// (kill -9 mid-append) while a damaged header means the file was never
// written by this code. Hostile input cannot panic the reader or make it
// allocate beyond the bytes actually presented.
func Replay(r io.Reader) (*ReplayResult, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %w", persist.ErrTruncated, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, hdr[:8])
	}
	if hdr[8] != FormatV1 {
		return nil, fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, hdr[8], FormatV1)
	}
	res := &ReplayResult{Valid: HeaderLen}
	cr := &countingReader{r: r}
	for {
		kind, payload, err := persist.ReadFrame(cr)
		if err == io.EOF {
			return res, nil // clean end at a record boundary
		}
		if err != nil {
			res.Damaged = true
			return res, nil
		}
		rec, ok := decodeRecord(kind, payload)
		if !ok || rec.Seq != uint64(len(res.Records))+1 {
			res.Damaged = true
			return res, nil
		}
		res.Records = append(res.Records, rec)
		res.Valid = HeaderLen + cr.n
	}
}

// decodeRecord validates one frame: the payload must be a well-formed
// record whose populated side matches the frame kind.
func decodeRecord(kind byte, payload []byte) (Record, bool) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&rec); err != nil {
		return Record{}, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return Record{}, false
	}
	switch kind {
	case kindStage:
		return rec, rec.Stage != nil && rec.Run == nil
	case kindRun:
		return rec, rec.Run != nil && rec.Stage == nil
	}
	return Record{}, false
}

// countingReader tracks how many bytes of the underlying stream have been
// consumed, so replay can report where the valid prefix ends.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Writer appends records to one session's journal file. Every record is
// fsynced before it is acknowledged, and the fsync's cost is proportional
// to the record, not the session. AppendCommit writes the frame under the
// writer lock and returns a wait that makes the file durable up to that
// record: the first waiter fsyncs everything written so far, and any
// waiter whose bytes that fsync covered returns without a second one. So
// consecutive appends to one file share an fsync, while different
// sessions' files never queue behind one another.
type Writer struct {
	// syncMu serialises fsyncs and generation changes (Reset, Close); it is
	// taken before mu. mu guards the file offset and the bookkeeping, and is
	// released while a wait's fsync runs so appends can continue.
	syncMu  sync.Mutex
	mu      sync.Mutex
	f       *os.File
	path    string
	seq     uint64
	records int
	bytes   int64 // record bytes since the header (== bytes since compaction)
	gen     *generation
	closed  bool
	failed  bool // poisoned: unrewound partial write or failed fsync
	reg     *metrics.Registry
}

// generation is the file's life between two truncations. A wait remembers
// the generation its record was written in: offsets start over after
// Reset, so an offset alone cannot tell a record Reset made durable from a
// later record at the same offset.
type generation struct {
	durable int64 // every byte below this offset is fsynced
	pending int   // records written at or past durable
	err     error // the fsync failure that poisoned this generation
}

// batchBuckets are the histogram bounds for persist_group_commit_batch_size:
// batch sizes are small integers, so the default latency buckets would bin
// them uselessly.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// SetMetrics instruments the writer: every journal fsync is counted and
// timed (persist_fsync_total{path="journal"},
// persist_fsync_seconds{path="journal"}), the records it made durable
// are observed as one batch (persist_group_commit_batch_size) and their
// bytes accumulate in persist_journal_bytes_total, and each Reset — the
// post-compaction truncate — bumps persist_compactions_total. Safe to call
// at any time; the service registers every writer it opens or adopts.
func (w *Writer) SetMetrics(reg *metrics.Registry) {
	w.mu.Lock()
	w.reg = reg
	w.mu.Unlock()
}

// Open opens (creating if absent) the journal at path, recovers its valid
// prefix, truncates any damaged tail so subsequent appends extend a clean
// file, and returns the writer positioned at the end alongside the
// recovered records. A file whose header is unreadable fails with a typed
// error and is left untouched — the caller decides whether to quarantine
// it; Open never destroys bytes it cannot prove are a journal's.
func Open(path string) (*Writer, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &Writer{f: f, path: path, gen: &generation{durable: HeaderLen}}
	if info.Size() == 0 {
		if err := w.writeHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	res, err := Replay(bufio.NewReader(io.NewSectionReader(f, 0, info.Size())))
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("recovering %s: %w", path, err)
	}
	if res.Damaged || res.Valid < info.Size() {
		if err := f.Truncate(res.Valid); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(res.Valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.records = len(res.Records)
	w.bytes = res.Valid - HeaderLen
	w.gen.durable = res.Valid
	if n := len(res.Records); n > 0 {
		w.seq = res.Records[n-1].Seq
	}
	return w, res.Records, nil
}

// writeHeader writes and syncs the magic and version at offset 0.
func (w *Writer) writeHeader() error {
	if _, err := w.f.WriteAt(append(append([]byte(nil), magic[:]...), FormatV1), 0); err != nil {
		return fmt.Errorf("journal: writing header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	_, err := w.f.Seek(HeaderLen, io.SeekStart)
	return err
}

// Append assigns the record the next sequence number, frames it, writes it
// in a single write call and fsyncs. When Append returns nil the record
// survives kill -9. When the write fails, the file is rewound to the
// pre-append offset so a torn frame can never sit in the MIDDLE of the
// file ahead of later successful appends (Replay heals tails, not
// middles); when the fsync fails, the file is rewound to its last durable
// offset. Either way, if even the rewind fails, the writer marks itself
// failed and refuses further appends rather than silently stranding them
// behind the damage.
func (w *Writer) Append(rec *Record) error {
	wait, err := w.AppendCommit(rec)
	if err != nil {
		return err
	}
	return wait()
}

// AppendCommit splits an append into its two halves: the record is framed
// and written under the writer lock (so offsets and sequence numbers stay
// ordered), and the returned wait blocks until the file is durable up to
// the record. The caller acknowledges the record only after wait returns
// nil. Calling wait outside the caller's own critical sections is what
// lets consecutive appends share one fsync: the first wait fsyncs every
// record written so far, so the later ones return at once. wait is
// idempotent, and a wait left pending across Reset or Close resolves with
// the fsync those made before truncating or closing.
func (w *Writer) AppendCommit(rec *Record) (wait func() error, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := w.frameRecord(rec)
	if err != nil {
		return nil, err
	}
	start := w.endLocked()
	if _, err := w.f.Write(frame.Bytes()); err != nil {
		w.rewindLocked(start)
		return nil, fmt.Errorf("journal: appending record: %w", err)
	}
	w.seq = rec.Seq
	w.records++
	w.bytes += int64(frame.Len())
	g, end := w.gen, w.endLocked()
	g.pending++
	return func() error { return w.syncTo(g, end) }, nil
}

// frameRecord validates the record shape, assigns the next sequence number
// and encodes the wire frame. Callers hold w.mu.
func (w *Writer) frameRecord(rec *Record) (*bytes.Buffer, error) {
	if w.closed {
		return nil, fmt.Errorf("journal: writer closed")
	}
	if w.failed {
		return nil, fmt.Errorf("journal: writer failed (poisoned by earlier append failure)")
	}
	kind := kindStage
	switch {
	case rec.Stage != nil && rec.Run == nil:
	case rec.Run != nil && rec.Stage == nil:
		kind = kindRun
	default:
		return nil, fmt.Errorf("journal: record must carry exactly one of stage, run")
	}
	rec.Seq = w.seq + 1
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	var frame bytes.Buffer
	if err := persist.WriteFrame(&frame, kind, payload); err != nil {
		return nil, err
	}
	return &frame, nil
}

// endLocked is the file offset the next record is written at. Callers
// hold w.mu.
func (w *Writer) endLocked() int64 { return HeaderLen + w.bytes }

// syncTo blocks until generation g of the file is durable up to end. Only
// the current generation can still be behind — Reset and Close settle a
// generation before they retire it — so the fsync always targets the open
// file. It runs without w.mu, letting appends continue; it covers every
// byte written before it started.
func (w *Writer) syncTo(g *generation, end int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if g.durable >= end {
		return nil
	}
	if g.err != nil {
		return g.err
	}
	upTo, n := w.endLocked(), g.pending
	w.mu.Unlock()
	t0 := time.Now()
	err := w.f.Sync()
	w.mu.Lock()
	return w.settleLocked(upTo, n, t0, err)
}

// flushLocked makes every record written in the current generation
// durable. Callers hold w.syncMu and w.mu.
func (w *Writer) flushLocked() error {
	g := w.gen
	if g.err != nil || g.pending == 0 {
		return g.err
	}
	t0 := time.Now()
	return w.settleLocked(w.endLocked(), g.pending, t0, w.f.Sync())
}

// settleLocked records the verdict of an fsync, started at t0, that
// covered the current generation's first n pending records, up to offset
// upTo. A failure poisons the writer and the generation, and rewinds the
// file to its last durable offset: records written since may already sit
// in the file, so only Reset (which discards everything) revives it.
// Callers hold w.syncMu and w.mu.
func (w *Writer) settleLocked(upTo int64, n int, t0 time.Time, err error) error {
	g := w.gen
	if err != nil {
		g.err = fmt.Errorf("journal: syncing record: %w", err)
		w.failed = true
		w.rewindLocked(g.durable)
		return g.err
	}
	if w.reg != nil {
		w.reg.Counter(metrics.Name("persist_fsync_total", "path", "journal")).Inc()
		w.reg.Histogram(metrics.Name("persist_fsync_seconds", "path", "journal"), nil).ObserveSince(t0)
		w.reg.Histogram("persist_group_commit_batch_size", batchBuckets).Observe(float64(n))
		w.reg.Counter("persist_journal_bytes_total").Add(upTo - g.durable)
	}
	g.durable, g.pending = upTo, g.pending-n
	return nil
}

// rewindLocked truncates a partial append away so the file ends at the last
// durable record. Failure to rewind poisons the writer. Callers hold w.mu.
func (w *Writer) rewindLocked(off int64) {
	if w.f.Truncate(off) != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		w.failed = true
		return
	}
	w.f.Sync() // best-effort: the truncate is what restores the invariant
}

// Reset truncates the journal back to its header — the step that follows a
// successful compaction snapshot. Sequence numbering restarts at 1, and a
// writer poisoned by a failed fsync or an unrewindable partial append
// recovers: the truncate discards the damage along with everything else.
func (w *Writer) Reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: writer closed")
	}
	// Records whose waits are still outstanding (plan batching defers
	// them) are made durable before the truncate, so those waits resolve
	// against the retired generation. The compaction snapshot preceding
	// this Reset already holds them: a failed fsync here fails only their
	// waits, not the Reset.
	w.flushLocked()
	if err := w.f.Truncate(HeaderLen); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if _, err := w.f.Seek(HeaderLen, io.SeekStart); err != nil {
		return err
	}
	w.seq, w.records, w.bytes = 0, 0, 0
	w.failed = false
	w.gen = &generation{durable: HeaderLen}
	if w.reg != nil {
		w.reg.Counter("persist_compactions_total").Inc()
	}
	return nil
}

// Stats reports the journal's current length and record bytes since the
// last compaction (or creation).
func (w *Writer) Stats() (records int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

// Close makes every written record durable, then closes the underlying
// file. Further appends fail; waits issued before Close resolve with its
// fsync's verdict. Close is idempotent.
func (w *Writer) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return errors.Join(w.flushLocked(), w.f.Close())
}

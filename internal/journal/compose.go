package journal

import (
	"vada/internal/persist"
	"vada/internal/runs"
)

// Compose folds replayed journal records into a decoded session snapshot,
// in place, returning it: the recovery path is "read the last full
// snapshot, replay the journal's valid prefix over it, restore the result"
// — and because both halves are plain data, the restored session flows
// through exactly the same persist.RestoreSession machinery as a
// journal-less snapshot.
//
// Compose is convergent against the compaction race: a crash can land
// between the compacted snapshot's rename and the journal's truncate, so
// records the snapshot already folded in are expected. Stage records must
// extend the event history contiguously (Event.Seq == len(events)+1);
// earlier sequences are skipped as already-applied, later ones mean the
// journal does not belong to this snapshot generation and replay of the
// remainder stops rather than corrupt Seq continuity. Run records are
// deduplicated by run ID — terminal runs are immutable, so the first copy
// wins. A compaction snapshot taken while a stage ran may also hold part of
// the stage record that follows it; Recorder.Compact makes that record's
// delta convergent, so applying it in full is exact.
func Compose(snap *persist.SessionSnapshot, recs []Record) *persist.SessionSnapshot {
	if snap == nil {
		return nil
	}
	seen := make(map[string]bool, len(snap.Runs))
	for _, r := range snap.Runs {
		seen[r.ID] = true
	}
	for _, rec := range recs {
		switch {
		case rec.Stage != nil:
			ev := rec.Stage.Event
			if ev.Seq <= len(snap.Events) {
				continue // already folded into the snapshot
			}
			if ev.Seq != len(snap.Events)+1 {
				return snap // sequence gap: stop at the last consistent state
			}
			snap.Events = append(snap.Events, ev)
			if snap.KB != nil {
				snap.KB.ApplyDelta(rec.Stage.Delta)
			}
			// The feedback store is append-only and the record carries its
			// slice's store index, so the overlap with items a mid-stage
			// compaction snapshot already captured is skipped exactly —
			// feedback replay is as convergent as the KB delta's.
			if n := len(rec.Stage.Feedback); n > 0 {
				skip := len(snap.Meta.Feedback) - rec.Stage.FeedbackAt
				if skip < 0 {
					skip = 0
				}
				if skip < n {
					snap.Meta.Feedback = append(snap.Meta.Feedback, rec.Stage.Feedback[skip:]...)
				}
			}
			if rec.Stage.ExecHashes != nil {
				snap.Meta.ExecHashes = rec.Stage.ExecHashes
			}
			if rec.Stage.FusedHash != 0 {
				snap.Meta.FusedHash = rec.Stage.FusedHash
			}
			if ev.At.After(snap.Meta.LastActive) {
				snap.Meta.LastActive = ev.At
			}
		case rec.Run != nil:
			r := *rec.Run
			if seen[r.ID] || !r.State.Terminal() {
				continue
			}
			seen[r.ID] = true
			snap.Runs = append(snap.Runs, r)
		}
	}
	return snap
}

// runIDs collects the IDs of a run slice — the seed for a Recorder's
// already-journaled set after recovery.
func runIDs(rs []runs.Run) map[string]bool {
	out := make(map[string]bool, len(rs))
	for _, r := range rs {
		out[r.ID] = true
	}
	return out
}

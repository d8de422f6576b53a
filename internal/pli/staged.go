package pli

import (
	"errors"
	"fmt"
)

// errStagedOpen rejects mutators while a staged batch is open: between
// stageBatch and finish the only legal mutations are runAttr calls, one per
// attribute. Outside ApplyBatch the window stays open only after a
// maintenance panic, so the store refuses further use.
var errStagedOpen = errors.New("pli: staged batch open (maintenance did not finish)")

// stagedBatch is the open staged batch: the normal-form change lists that
// every runAttr call reads. The slices are the caller's; they must not be
// mutated until finish.
type stagedBatch struct {
	deletes []int64
	inserts []BatchInsert
}

// ApplyBatch runs in three steps:
//
//	stageBatch(deletes, inserts)   — validate, flip liveness, stage (serial)
//	runAttr(a) for every attribute — per-shard maintenance (fanned out)
//	finish()                       — free pages, advance the id horizon
//
// stageBatch performs all of ApplyBatch's validation up front (on error the
// store is unchanged and no batch is staged) and then flips liveness
// serially: deletes are marked dead (their pages and cluster ids stay
// readable for the compactions), inserts are marked live with their arena
// pages allocated, and NumRecords is final. After stageBatch returns,
// runAttr(a) may be called concurrently for distinct attributes; each call
// owns shard a and arena column a exclusively, so the shards need no locks.
// The deletes and inserts slices are retained and read by runAttr until
// finish.
//
// Until finish closes the staging window, all other mutators and
// CheckConsistency report the store as staged-open.
func (s *Store) stageBatch(deletes []int64, inserts []BatchInsert) error {
	if s.staged != nil {
		return errStagedOpen
	}
	// Validate before mutating anything.
	if s.batchSeen == nil {
		s.batchSeen = make(map[int64]struct{}, len(deletes))
	}
	for _, id := range deletes {
		if !s.alive(id) {
			clear(s.batchSeen)
			return fmt.Errorf("pli: record %d not found", id)
		}
		if _, dup := s.batchSeen[id]; dup {
			clear(s.batchSeen)
			return fmt.Errorf("pli: record %d deleted twice in batch", id)
		}
		s.batchSeen[id] = struct{}{}
	}
	clear(s.batchSeen)
	prev := s.nextID - 1
	for i, ins := range inserts {
		if ins.ID <= prev {
			return fmt.Errorf("pli: batch insert %d id %d not ascending (next %d)", i, ins.ID, prev+1)
		}
		if len(ins.Values) != s.numAttrs {
			return fmt.Errorf("pli: batch insert %d has %d values, schema has %d attributes",
				i, len(ins.Values), s.numAttrs)
		}
		prev = ins.ID
	}

	// Flip liveness serially — mark the deletes dead (their pages and
	// cluster ids stay readable for the compaction in runAttr) and the
	// inserts live, allocating their arena pages. runAttr workers only read
	// the bitmaps.
	for _, id := range deletes {
		s.clearLive(id)
	}
	for _, ins := range inserts {
		s.setLive(ins.ID)
	}
	s.staged = &stagedBatch{deletes: deletes, inserts: inserts}
	return nil
}

// runAttr applies the staged batch to attribute a's shard: compaction of
// the touched clusters, then appends for the inserts (see applyAttr). Calls
// for distinct attributes may run concurrently; each writes only shard a
// and the records' column a. Misuse — no staged batch, attribute out of
// range, or a second call for the same attribute in one staging window —
// panics, and ApplyBatch's fan-out returns the panic as an error.
func (s *Store) runAttr(a int) {
	st := s.staged
	if st == nil {
		panic("pli: runAttr without a staged batch")
	}
	if a < 0 || a >= s.numAttrs {
		panic(fmt.Sprintf("pli: runAttr attribute %d out of range (%d attrs)", a, s.numAttrs))
	}
	if got := s.shards[a].epoch.Load(); got != s.batchEpoch {
		panic(fmt.Sprintf("pli: runAttr(%d) called twice in one staged batch (epoch %d, batch %d)",
			a, got, s.batchEpoch))
	}
	s.applyAttr(a, st.deletes, st.inserts)
	// The increment is the shard-local "maintained" marker.
	s.shards[a].epoch.Add(1)
}

// finish closes the staging window: frees arena pages whose last record
// died, advances the id horizon past the batch's inserts, and re-enables
// the ordinary mutators. It errors — leaving the window open, since the
// store is not in a consistent state — if any attribute was not maintained
// by a runAttr call.
func (s *Store) finish() error {
	st := s.staged
	if st == nil {
		return errors.New("pli: finish without a staged batch")
	}
	for a := range s.shards {
		if got := s.shards[a].epoch.Load(); got != s.batchEpoch+1 {
			return fmt.Errorf("pli: finish with attribute %d not maintained (epoch %d, want %d)",
				a, got, s.batchEpoch+1)
		}
	}
	for _, id := range st.deletes {
		s.freePageIfEmpty(id)
	}
	if n := len(st.inserts); n > 0 {
		s.nextID = st.inserts[n-1].ID + 1
	}
	s.batchEpoch++
	s.staged = nil
	return nil
}

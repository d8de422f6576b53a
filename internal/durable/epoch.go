package durable

import (
	"fmt"

	"dynfd/internal/wal"
)

// Epoch returns the fencing epoch the engine's state belongs to (0 until
// the first promotion). Lock-free and safe from any goroutine.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// EpochStart returns the WAL sequence number at which the current epoch
// began: the sequence of the promotion record that opened it (0 for epoch
// 0). Frames at or above it belong to the current epoch's history; a
// fenced node whose tail reaches past a winner's EpochStart has diverged
// and must discard. Lock-free and safe from any goroutine.
func (e *Engine) EpochStart() uint64 { return e.epochStart.Load() }

// Promote durably bumps the fencing epoch by one: it appends a promotion
// record to the WAL — consuming one sequence number, so the record ships
// in-band to followers through the feed — and returns the new epoch only
// once the record is synced. After a crash, replay restores the epoch from
// the record (or from the checkpoint it was folded into), so a promotion
// that returned nil is never forgotten. Like Stage, calls must be
// externally serialized.
func (e *Engine) Promote() (uint64, error) {
	if err := e.Poisoned(); err != nil {
		return 0, fmt.Errorf("durable: engine poisoned, refusing promotion: %w", err)
	}
	epoch := e.epoch.Load() + 1
	seq := e.seq.Load() + 1
	if err := e.stagePromotion(seq, epoch, wal.EncodePromotion(epoch)); err != nil {
		return 0, err
	}
	return epoch, nil
}

// stagePromotion runs one promotion record through the commit pipeline:
// append unsynced, advance seq/epoch/epochStart, rebuild the result
// snapshot at the new sequence (the data state is unchanged — only the
// watermark moves), ship the record through the feed, and wait for the
// group fsync. Promotions are rare, so the stage/wait split is not worth
// exposing; the record is durable when this returns nil. Callers must hold
// the external staging serialization.
func (e *Engine) stagePromotion(seq, epoch uint64, payload []byte) error {
	if err := e.committer.Check(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := e.log.Append(seq, payload); err != nil {
		// Same torn-record hazard as Stage: further appends would bury it.
		e.poison(err)
		return err
	}
	e.committer.Appended(seq)
	e.seq.Store(seq)
	e.epoch.Store(epoch)
	e.epochStart.Store(seq)
	e.lastStaged = e.eng.BuildResults(e.lastStaged, seq, e.columns, nil, nil)
	if e.feed != nil {
		e.feed.Append(seq, payload)
	}
	e.sinceCheckpoint++
	if err := e.committer.WaitSynced(seq); err != nil {
		e.poison(err)
		return err
	}
	e.publish(e.lastStaged)
	if e.feed != nil {
		e.feed.Durable(seq)
	}
	return nil
}

package durable

import (
	"fmt"

	"dynfd/internal/core"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// ChangeFeed receives every change the engine commits, for WAL-shipping
// replication (DESIGN.md §15). Append delivers each staged batch's frame
// — the logged payload plus its cover-delta trailer — in sequence order
// (called under the engine's external staging serialization; the frame is
// handed over and never modified again);
// Durable advances the durability watermark — only frames at or below it
// may be shipped to followers, so a follower can never hold a batch a
// crashed primary would lose. Durable is called from arbitrary goroutines
// and may jump past Append's high-water mark when a checkpoint replaces
// the engine state wholesale.
//
// repl.Feed is the implementation; durable only sees this interface to
// avoid the dependency.
type ChangeFeed interface {
	Append(seq uint64, payload []byte)
	Durable(seq uint64)
	// Rewind resets the feed to seq after a checkpoint install replaced the
	// engine state at a position that may lie BEHIND the retained frames:
	// the retained tail belongs to a discarded history and must never be
	// shipped again (DESIGN.md §16).
	Rewind(seq uint64)
}

// ApplyReplicated applies one frame shipped from a replication primary
// (DESIGN.md §15): the batch record exactly as the primary logged
// it, normally followed by the batch's cover delta as a frame trailer
// (wal.SplitTrailer). seq must be exactly Seq()+1 — the follower's replay
// is a gapless prefix of the primary's history. The batch bytes are
// logged verbatim, so the replica's WAL records equal the primary's, and
// the batch runs through the normal planner and Pli maintenance, so record
// ids match the primary's; the covers are then patched from the delta
// instead of re-running the delete and insert sweeps (core.ApplyPatched),
// and the whole frame goes on to this engine's own feed for chained
// followers. A frame without a trailer, or with one this engine cannot
// use, is applied with the full sweeps. Sequencing and group commit are
// those of any local write; a nil return means the frame survives any
// subsequent crash of the replica (whose WAL replay recomputes).
//
// Like Stage, calls must be externally serialized.
func (e *Engine) ApplyReplicated(seq uint64, payload []byte) error {
	if want := e.seq.Load() + 1; seq != want {
		return fmt.Errorf("durable: replicated frame has seq %d, engine expects %d", seq, want)
	}
	if wal.IsControl(payload) {
		// A promotion record shipped in-band: the upstream primary was
		// promoted into a new epoch, and the follower adopts it at the same
		// sequence so epoch history stays identical across the cluster.
		epoch, err := wal.DecodePromotion(payload)
		if err != nil {
			return fmt.Errorf("durable: replicated frame %d: %w", seq, err)
		}
		if cur := e.epoch.Load(); epoch <= cur {
			return fmt.Errorf("durable: replicated frame %d promotes to epoch %d, engine already at %d", seq, epoch, cur)
		}
		if err := e.Poisoned(); err != nil {
			return fmt.Errorf("durable: engine poisoned, refusing replicated promotion: %w", err)
		}
		return e.stagePromotion(seq, epoch, payload)
	}
	record, trailer, framed := wal.SplitTrailer(payload)
	changes, err := stream.DecodeRecord(record)
	if err != nil {
		return fmt.Errorf("durable: decoding replicated frame %d: %w", seq, err)
	}
	batch := stream.Batch{Changes: changes}
	if err := e.precheck(batch); err != nil {
		return err
	}
	var delta *core.CoverDelta
	if framed {
		// An undecodable delta (say, from a newer primary) costs only the
		// shortcut: stage recomputes as for a trailer-less frame.
		delta, _ = core.DecodeCoverDelta(trailer)
	}
	_, p, err := e.stage(batch, record, payload, delta)
	if err != nil {
		return err
	}
	return p.Wait()
}

// CheckpointBlob returns a checkpoint blob covering at least minSeq,
// together with the sequence it actually covers. The stored checkpoint is
// served when fresh enough; otherwise a new checkpoint is forced first —
// so the blob a follower installs can always be continued from the
// primary's retained frame stream (the caller passes the feed's floor as
// minSeq). Like Checkpoint, calls must be externally serialized.
func (e *Engine) CheckpointBlob(minSeq uint64) ([]byte, uint64, error) {
	blob, ok, err := e.st.ReadCheckpoint()
	if err == nil && ok {
		if cp, derr := decodeCheckpoint(blob); derr == nil && cp.Seq >= minSeq {
			return blob, cp.Seq, nil
		}
	}
	if err := e.Checkpoint(); err != nil {
		return nil, 0, err
	}
	blob, ok, err = e.st.ReadCheckpoint()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("durable: checkpoint missing right after writing one")
	}
	cp, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, 0, err
	}
	return blob, cp.Seq, nil
}

// InstallCheckpoint replaces the engine's state with a primary checkpoint
// ahead of it — the follower's catch-up step when the primary no longer
// retains its position. "Ahead" means a higher sequence within the same
// epoch, or any sequence from a higher fencing epoch: the latter is how a
// fenced ex-primary discards a divergent tail the winner never shipped. The blob is persisted verbatim (atomic replace),
// the local WAL is reset, and the in-memory engine is swapped to the
// restored snapshot, so crash recovery at any interleaving converges to
// either the old state or the installed one, never a mix. Every staged
// batch is below the new sequence, so their waiters are released as
// covered. Like Stage, calls must be externally serialized.
func (e *Engine) InstallCheckpoint(blob []byte) error {
	if err := e.Poisoned(); err != nil {
		return fmt.Errorf("durable: engine poisoned, refusing checkpoint install: %w", err)
	}
	cp, err := decodeCheckpoint(blob)
	if err != nil {
		return err
	}
	if !equalColumns(cp.Columns, e.columns) {
		return fmt.Errorf("durable: checkpoint schema mismatch: store has %v, checkpoint has %v", e.columns, cp.Columns)
	}
	if cur := e.seq.Load(); cp.Seq <= cur && cp.Epoch <= e.epoch.Load() {
		// Same epoch and not ahead: nothing to gain. A checkpoint from a
		// HIGHER epoch installs even at a lower sequence — that is the
		// fenced ex-primary discarding its divergent unshipped tail in
		// favor of the winner's history (DESIGN.md §16).
		return fmt.Errorf("durable: checkpoint at seq %d epoch %d is not ahead of engine at seq %d epoch %d", cp.Seq, cp.Epoch, cur, e.epoch.Load())
	}
	eng, err := core.Restore(cp.Engine)
	if err != nil {
		return fmt.Errorf("durable: restoring installed checkpoint: %w", err)
	}
	// Persist first: once the blob is on disk, recovery lands on the
	// installed state (local WAL records all have lower sequences and are
	// skipped); before it, recovery lands on the old state. Either is
	// consistent. A failed replace leaves the old checkpoint intact, so
	// nothing is poisoned.
	if err := e.st.WriteCheckpoint(blob); err != nil {
		return err
	}
	e.sinceCheckpoint = 0
	if err := e.committer.Exclusive(e.log.Reset); err != nil {
		// Disk has the new checkpoint but the log cannot be trusted for
		// further appends.
		e.poison(err)
		return err
	}
	e.eng = eng
	e.seq.Store(cp.Seq)
	e.epoch.Store(cp.Epoch)
	e.epochStart.Store(cp.EpochStart)
	// Rewind, not Appended+MarkSynced: an epoch-forced install may move the
	// engine BACKWARDS, and a stale synced mark above cp.Seq would report
	// later batches durable without an fsync.
	e.committer.Rewind(cp.Seq)
	if e.feed != nil {
		// Rewind, not Durable: Durable is monotone, so a backwards install
		// would leave the ring holding the discarded history's frames with
		// the watermark still at the old high — and a chained downstream
		// follower re-tailing after installing the same winner checkpoint
		// would be served divergent frames onto winner state.
		e.feed.Rewind(cp.Seq)
	}
	// The core engine was swapped out: the snapshot chain restarts with no
	// copy-on-write predecessor.
	e.lastStaged = e.eng.BuildResults(nil, cp.Seq, e.columns, nil, nil)
	e.publish(e.lastStaged)
	return nil
}

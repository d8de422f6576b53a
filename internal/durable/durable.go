package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"dynfd/internal/core"
	"dynfd/internal/dataset"
	"dynfd/internal/results"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// DefaultCheckpointEvery is the automatic checkpoint interval (in applied
// batches) when Options.CheckpointEvery is zero.
const DefaultCheckpointEvery = 64

// Options configures Open.
type Options struct {
	// Columns is the schema. Required for a fresh store; for an existing
	// store it is verified against the recovered checkpoint (nil skips the
	// check and adopts the stored schema).
	Columns []string
	// Config is the engine configuration for a fresh store. A recovered
	// store keeps the configuration stored in its checkpoint.
	Config core.Config
	// CheckpointEvery is the number of applied batches between automatic
	// checkpoints; 0 means DefaultCheckpointEvery, negative disables
	// automatic checkpoints (the WAL then grows until an explicit
	// Checkpoint or Close).
	CheckpointEvery int
	// SyncMaxDelay is the group committer's linger window: how long a
	// commit leader waits before running the group fsync, so concurrent
	// batches coalesce into one sync. 0 syncs immediately (concurrent
	// waiters still coalesce — the linger only grows groups further at
	// the price of latency).
	SyncMaxDelay time.Duration
	// CommitQueue bounds the number of batches staged but not yet
	// durable; Stage rejects cleanly with wal.ErrCommitQueueFull beyond
	// it. 0 means unbounded.
	CommitQueue int
	// Feed, when set, receives every committed batch for WAL-shipping
	// replication: Stage appends each staged payload, and the durability
	// watermark advances as batches are covered by fsyncs or checkpoints.
	Feed ChangeFeed
}

// Engine wraps a core engine with write-ahead durability. The commit of a
// batch is split in two (DESIGN.md §14): Stage prechecks the batch,
// appends it to the WAL unsynced, applies it in memory, and builds the
// next result snapshot; the returned Pending's Wait then makes it durable
// through the group committer — concurrent waiters coalesce into shared
// fsyncs — and publishes the snapshot once covered. Apply = Stage + Wait,
// preserving the original contract: a nil return means the batch survives
// any subsequent crash, and a batch rejected before its append is wholly
// absent after one.
//
// Concurrency contract: Stage, Checkpoint, Bootstrap, and Close must be
// externally serialized (the runtime holds the tenant mutation lock), but
// Pending.Wait is called outside that lock and may overlap everything
// except Close. Snapshot is lock-free and always safe.
type Engine struct {
	st      Storage
	log     *wal.Log
	eng     *core.Engine
	columns []string
	feed    ChangeFeed // nil unless the engine is a replication primary

	seq             atomic.Uint64 // sequence number of the last staged batch
	sinceCheckpoint int           // batches staged since the last checkpoint
	checkpointEvery int           // 0 disables automatic checkpoints

	// epoch is the fencing epoch the state belongs to and epochStart the
	// WAL sequence the epoch began at — both advanced only by a durable
	// promotion record (DESIGN.md §16) or an epoch-forced checkpoint
	// install. Read lock-free by the replication server's fencing checks.
	epoch      atomic.Uint64
	epochStart atomic.Uint64

	// lastCheckpoint is the outcome of the most recent checkpoint attempt.
	// It has its own lock because health probes read it from arbitrary
	// goroutines while Stage (externally serialized) writes it.
	cpMu           sync.Mutex
	lastCheckpoint error

	committer *wal.GroupCommitter

	// record is Stage's batch-record encoding buffer, reused from batch
	// to batch: the log copies a record on append and the feed gets its
	// own frame.
	record []byte

	// lastStaged is the snapshot of the last staged batch — the
	// copy-on-write predecessor of the next one. Guarded by the external
	// serialization of Stage. published is the atomic publication point
	// read by the lock-free query path; pubMu orders concurrent
	// publishers (publication is monotone in seq, never torn).
	lastStaged *results.Snapshot
	published  atomic.Pointer[results.Snapshot]
	pubMu      sync.Mutex

	// poisoned is set when the durable and in-memory states may have
	// diverged: a WAL append/sync failure (the log may hold a torn record
	// that a further append would bury), an in-memory apply failure after
	// the batch was logged, or a core-engine poisoning. Every further
	// Stage fails fast; reads stay available. Guarded by poisonMu — Stage
	// runs under the external lock but Wait's sync failures arrive from
	// arbitrary goroutines.
	poisonMu sync.Mutex
	poisoned error
}

// poison records the first poisoning cause and propagates it to the
// committer so stuck waiters fail instead of hanging.
func (e *Engine) poison(err error) {
	e.poisonMu.Lock()
	if e.poisoned == nil && err != nil {
		e.poisoned = err
	}
	e.poisonMu.Unlock()
	if e.committer != nil {
		e.committer.Poison(err)
	}
}

// Open loads or initializes a durable engine on the given storage.
//
// Recovery sequence (DESIGN.md §11): read the checkpoint and restore the
// engine from it (a fresh store starts an empty engine and writes an
// initial checkpoint instead); scan the WAL, truncating the torn tail at
// the first incomplete or corrupt record; replay, in order, every record
// whose sequence number exceeds the checkpoint's (records at or below it
// are remnants of a checkpoint whose log reset was interrupted — already
// folded in, skipped); finally fold the replayed suffix into a fresh
// checkpoint and reset the log, so recovery converges in one step no
// matter how often it is interrupted.
func Open(st Storage, opts Options) (*Engine, error) {
	e := newEngine(st, opts)
	blob, ok, err := st.ReadCheckpoint()
	if err != nil {
		return nil, err
	}
	if !ok {
		if len(opts.Columns) == 0 {
			return nil, fmt.Errorf("durable: fresh store needs a schema (no checkpoint found and no columns given)")
		}
		e.columns = append([]string(nil), opts.Columns...)
		e.eng = core.NewEmpty(len(e.columns), opts.Config)
		// Persist the empty state immediately so the schema is on disk and
		// every later recovery finds a checkpoint.
		if err := e.writeCheckpoint(); err != nil {
			return nil, err
		}
		if err := e.log.Reset(); err != nil {
			return nil, err
		}
		e.finishOpen(opts)
		return e, nil
	}
	cp, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	return e.recoverFrom(cp, opts)
}

// OpenSeeded opens a follower directly at a primary's checkpoint instead
// of replaying the primary's whole history: it decodes blob once, refuses
// storage that already holds a checkpoint, persists blob verbatim, and
// restores the engine from the decoded state (then recovers as Open
// does, so the seeded store is exactly what a later Open finds).
func OpenSeeded(st Storage, blob []byte, opts Options) (*Engine, error) {
	cp, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	_, ok, err := st.ReadCheckpoint()
	if err != nil {
		return nil, err
	}
	if ok {
		return nil, fmt.Errorf("durable: refusing to seed storage that already holds a checkpoint")
	}
	if err := st.WriteCheckpoint(blob); err != nil {
		return nil, err
	}
	return newEngine(st, opts).recoverFrom(cp, opts)
}

// newEngine returns an engine over st with the checkpoint interval
// resolved; Open and OpenSeeded restore or initialize its state.
func newEngine(st Storage, opts Options) *Engine {
	e := &Engine{
		st:              st,
		log:             wal.NewLog(st.Log()),
		checkpointEvery: opts.CheckpointEvery,
	}
	if e.checkpointEvery == 0 {
		e.checkpointEvery = DefaultCheckpointEvery
	} else if e.checkpointEvery < 0 {
		e.checkpointEvery = 0
	}
	return e
}

// recoverFrom restores the engine from the stored checkpoint cp and
// replays the WAL past it.
func (e *Engine) recoverFrom(cp *checkpoint, opts Options) (*Engine, error) {
	if opts.Columns != nil && !equalColumns(opts.Columns, cp.Columns) {
		return nil, fmt.Errorf("durable: schema mismatch: store has %v, caller wants %v", cp.Columns, opts.Columns)
	}
	e.columns = cp.Columns
	e.seq.Store(cp.Seq)
	e.epoch.Store(cp.Epoch)
	e.epochStart.Store(cp.EpochStart)
	var err error
	e.eng, err = core.Restore(cp.Engine)
	if err != nil {
		return nil, fmt.Errorf("durable: restoring checkpoint: %w", err)
	}

	data, err := e.st.ReadLog()
	if err != nil {
		return nil, err
	}
	recs, validLen := wal.Scan(data)
	if validLen < int64(len(data)) {
		// Torn tail: a crash interrupted the append of the last record
		// before its fsync completed, so it was never acknowledged.
		if err := e.log.Truncate(validLen); err != nil {
			return nil, err
		}
	}
	replayed := false
	seq := cp.Seq
	for _, rec := range recs {
		if rec.Seq <= cp.Seq {
			if replayed {
				return nil, fmt.Errorf("durable: WAL sequence %d out of order after replaying past %d", rec.Seq, seq)
			}
			continue // folded into the checkpoint already
		}
		if rec.Seq != seq+1 {
			return nil, fmt.Errorf("durable: WAL gap: have state at seq %d, next record is seq %d", seq, rec.Seq)
		}
		if wal.IsControl(rec.Payload) {
			// A promotion record: it consumes a sequence number but mutates
			// only the fencing epoch, which must survive crash/replay.
			epoch, err := wal.DecodePromotion(rec.Payload)
			if err != nil {
				return nil, fmt.Errorf("durable: WAL record %d: %w", rec.Seq, err)
			}
			if epoch <= e.epoch.Load() {
				return nil, fmt.Errorf("durable: WAL record %d promotes to epoch %d, not above %d", rec.Seq, epoch, e.epoch.Load())
			}
			e.epoch.Store(epoch)
			e.epochStart.Store(rec.Seq)
			seq = rec.Seq
			replayed = true
			continue
		}
		changes, err := stream.DecodeRecord(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("durable: WAL record %d: %w", rec.Seq, err)
		}
		if _, err := e.eng.ApplyBatch(stream.Batch{Changes: changes}); err != nil {
			return nil, fmt.Errorf("durable: replaying WAL record %d: %w", rec.Seq, err)
		}
		seq = rec.Seq
		replayed = true
	}
	e.seq.Store(seq)
	if len(recs) > 0 || validLen < int64(len(data)) {
		// Fold the replayed suffix in so a crash during the next run never
		// has to replay it again, and the log starts empty.
		if err := e.writeCheckpoint(); err != nil {
			return nil, err
		}
		if err := e.log.Reset(); err != nil {
			return nil, err
		}
	}
	e.finishOpen(opts)
	return e, nil
}

// finishOpen wires up the group committer and publishes the initial
// result snapshot: everything recovered is durable, so the snapshot is
// visible to the lock-free read path before Open returns.
func (e *Engine) finishOpen(opts Options) {
	e.committer = wal.NewGroupCommitter(e.log.Sync, e.seq.Load(), opts.SyncMaxDelay, opts.CommitQueue)
	e.lastStaged = e.eng.BuildResults(nil, e.seq.Load(), e.columns, nil, nil)
	e.published.Store(e.lastStaged)
	e.feed = opts.Feed
	if e.feed != nil {
		// Everything recovered is durable; the feed starts shipping at the
		// next staged batch.
		e.feed.Durable(e.seq.Load())
	}
}

func equalColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeCheckpoint persists the current engine state tagged with the
// current sequence number.
func (e *Engine) writeCheckpoint() error {
	config, err := json.Marshal(e.eng.Config())
	if err != nil {
		return fmt.Errorf("durable: encoding checkpoint: %w", err)
	}
	blob := appendCheckpoint(nil, &checkpoint{
		Seq:        e.seq.Load(),
		Columns:    e.columns,
		Epoch:      e.epoch.Load(),
		EpochStart: e.epochStart.Load(),
		config:     config,
	}, e.eng)
	if err := e.st.WriteCheckpoint(blob); err != nil {
		return err
	}
	e.sinceCheckpoint = 0
	return nil
}

// Checkpoint folds the WAL into a fresh engine snapshot: the snapshot is
// atomically replaced first, then the log is reset. A crash between the
// two steps is safe — recovery skips log records at or below the
// checkpoint's sequence number. Like Stage, it must be externally
// serialized; the log reset runs inside the committer's Exclusive bracket
// so it never overlaps an in-flight group fsync, and a successful
// checkpoint counts as durability for every staged batch (the engine
// state it persisted includes them all), so covered waiters are released
// without an fsync.
func (e *Engine) Checkpoint() error {
	if err := e.Poisoned(); err != nil {
		return fmt.Errorf("durable: engine poisoned, refusing checkpoint: %w", err)
	}
	err := e.checkpointLocked()
	e.setLastCheckpoint(err)
	return err
}

func (e *Engine) setLastCheckpoint(err error) {
	e.cpMu.Lock()
	e.lastCheckpoint = err
	e.cpMu.Unlock()
}

// checkpointLocked writes the checkpoint and resets the log under the
// committer's exclusive bracket. Callers must hold the external
// serialization (no concurrent Stage).
func (e *Engine) checkpointLocked() error {
	if err := e.writeCheckpoint(); err != nil {
		return err
	}
	// The checkpoint covers every staged batch — release their waiters
	// even if the log reset below fails (recovery skips records at or
	// below the checkpoint's sequence either way).
	e.committer.MarkSynced(e.seq.Load())
	e.publish(e.lastStaged)
	if e.feed != nil {
		e.feed.Durable(e.seq.Load())
	}
	return e.committer.Exclusive(e.log.Reset)
}

// publish makes snap the published snapshot unless a newer one already
// is; publication is monotone in sequence number.
func (e *Engine) publish(snap *results.Snapshot) {
	if snap == nil {
		return
	}
	e.pubMu.Lock()
	if cur := e.published.Load(); cur == nil || snap.Seq() >= cur.Seq() {
		e.published.Store(snap)
	}
	e.pubMu.Unlock()
}

// Snapshot returns the latest published result snapshot: the state of the
// last batch known durable. It is lock-free — an atomic pointer load —
// and safe from any goroutine at any time, including concurrently with
// Stage, Checkpoint, and Close.
func (e *Engine) Snapshot() *results.Snapshot { return e.published.Load() }

// Pending is a staged batch awaiting durability. Wait blocks until the
// batch is covered by a group fsync or a checkpoint, publishes its result
// snapshot, and returns nil exactly when the batch survives any
// subsequent crash.
type Pending struct {
	e    *Engine
	seq  uint64
	snap *results.Snapshot
	done bool
}

// Stage prechecks one batch, appends it to the WAL (unsynced), applies it
// to the in-memory engine, and builds — but does not publish — the next
// result snapshot. The batch is NOT durable until the returned Pending's
// Wait returns nil. Stage calls must be externally serialized; Wait is
// meant to run outside that serialization so concurrent batches coalesce
// into shared group fsyncs.
//
// An error return means the batch was rejected cleanly (bad batch, commit
// queue full, poisoned engine) or the engine poisoned itself mid-commit;
// either way there is nothing to Wait on.
func (e *Engine) Stage(batch stream.Batch) (core.Result, *Pending, error) {
	if err := e.precheck(batch); err != nil {
		return core.Result{}, nil, err
	}
	record, err := stream.AppendRecord(e.record[:0], batch.Changes)
	if err != nil {
		return core.Result{}, nil, fmt.Errorf("durable: encoding batch: %w", err)
	}
	e.record = record
	return e.stage(batch, record, nil, nil)
}

// precheck rejects a batch before it reaches the log: the WAL must only
// ever contain batches that apply cleanly on replay, and values that
// replay and checkpoints reproduce byte for byte.
func (e *Engine) precheck(batch stream.Batch) error {
	if err := e.Poisoned(); err != nil {
		return fmt.Errorf("durable: engine poisoned by earlier failure, refusing batch: %w", err)
	}
	for i, c := range batch.Changes {
		if err := e.checkUTF8(c.Values); err != nil {
			return fmt.Errorf("durable: batch change %d: %w", i, err)
		}
	}
	return e.eng.CheckBatch(batch)
}

// checkUTF8 rejects a tuple holding a value that is not valid UTF-8.
// Binary checkpoints keep any bytes, but stores and primaries of older
// builds write JSON checkpoints, which turn invalid bytes into U+FFFD: such
// a value would come back changed after their recovery or catch-up, and
// with it the FDs it takes part in.
func (e *Engine) checkUTF8(values []string) error {
	for a, v := range values {
		if !utf8.ValidString(v) {
			name := ""
			if a < len(e.columns) {
				name = e.columns[a]
			}
			return fmt.Errorf("value of attribute %d (%s) is not valid UTF-8", a, name)
		}
	}
	return nil
}

// stage is Stage after the precheck: it logs record (the batch record,
// or a JSON-lines batch shipped by an older primary) under the next
// sequence, applies the batch, and builds its result snapshot. Given a
// cover delta (ApplyReplicated) the engine patches its covers from it
// and frame, the received frame with its trailer, goes to the feed
// unchanged. Without a delta, or when the delta does not fit, the
// engine runs the full sweeps and the feed gets record framed with this
// engine's own delta.
func (e *Engine) stage(batch stream.Batch, record, frame []byte, delta *core.CoverDelta) (core.Result, *Pending, error) {
	// Claim a commit-queue slot before touching the log: a full queue is
	// a clean, side-effect-free rejection. The slot is released by Wait.
	if err := e.committer.Reserve(); err != nil {
		return core.Result{}, nil, fmt.Errorf("durable: %w", err)
	}
	seq := e.seq.Load() + 1
	if err := e.log.Append(seq, record); err != nil {
		// The log may now end in a torn record; appending more would bury
		// it and lose everything after it on recovery.
		e.committer.Release()
		e.poison(err)
		return core.Result{}, nil, err
	}
	e.committer.Appended(seq)
	var res core.Result
	var err error
	if delta != nil {
		res, err = e.eng.ApplyPatched(batch, delta)
	}
	if delta == nil || errors.Is(err, core.ErrDeltaMismatch) {
		// No delta, or one that does not fit (it left the engine
		// untouched): recompute, and ship this node's own delta onward.
		frame = nil
		res, err = e.eng.ApplyBatch(batch)
	}
	if err != nil {
		// The batch is in the log (possibly about to become durable via a
		// concurrent group sync) but not in memory: the two states have
		// diverged (unreachable for prechecked batches — a worker panic
		// is the realistic cause).
		e.committer.Release()
		perr := fmt.Errorf("durable: batch %d logged but not applied: %w", seq, err)
		e.poison(perr)
		return core.Result{}, nil, perr
	}
	e.seq.Store(seq)
	e.lastStaged = e.eng.BuildResults(e.lastStaged, seq, e.columns, res.Added, res.Removed)
	if e.feed != nil {
		if frame == nil {
			// A fresh slice: the feed owns its frames, and record may alias
			// a caller's buffer. Not shippable until durable.
			frame = append(make([]byte, 0, len(record)+512), record...)
			frame = e.eng.AppendCoverDelta(wal.AppendTrailer(frame, nil))
		}
		e.feed.Append(seq, frame)
	}
	p := &Pending{e: e, seq: seq, snap: e.lastStaged}
	e.sinceCheckpoint++
	if e.checkpointEvery > 0 && e.sinceCheckpoint >= e.checkpointEvery {
		// The automatic checkpoint persists the engine state including
		// this batch, so it doubles as the batch's durability: Wait will
		// return immediately. A failed checkpoint does not fail the Stage
		// (the group fsync still covers the batch) but is reported by
		// LastCheckpointErr.
		e.setLastCheckpoint(e.checkpointLocked())
	}
	return res, p, nil
}

// Wait blocks until the staged batch is durable, publishes its result
// snapshot, and releases the commit-queue slot. It must be called exactly
// once per successful Stage; a nil return means the batch survives any
// subsequent crash. Wait is safe to call from any goroutine — commit
// waiters coalesce into shared group fsyncs, and the calling goroutine
// may run the group's fsync itself.
func (p *Pending) Wait() error {
	if p.done {
		return fmt.Errorf("durable: Wait called twice for batch %d", p.seq)
	}
	p.done = true
	defer p.e.committer.Release()
	if err := p.e.committer.WaitSynced(p.seq); err != nil {
		p.e.poison(err)
		return err
	}
	p.e.publish(p.snap)
	if p.e.feed != nil {
		p.e.feed.Durable(p.seq)
	}
	return nil
}

// Apply makes one batch durable and applies it — Stage followed by Wait,
// for callers that serialize everything: a nil return means the batch
// survives any subsequent crash, and an error before the append means it
// is wholly absent.
func (e *Engine) Apply(batch stream.Batch) (core.Result, error) {
	res, p, err := e.Stage(batch)
	if err != nil {
		return core.Result{}, err
	}
	if err := p.Wait(); err != nil {
		return core.Result{}, err
	}
	return res, nil
}

// Bootstrap profiles initial rows with the static algorithm and makes the
// result durable. It is only valid on a store that has never held records
// or batches.
func (e *Engine) Bootstrap(rows [][]string) error {
	if err := e.Poisoned(); err != nil {
		return fmt.Errorf("durable: engine poisoned, refusing bootstrap: %w", err)
	}
	if e.seq.Load() != 0 || e.eng.NumRecords() != 0 {
		return fmt.Errorf("durable: Bootstrap requires an empty store (have %d records at seq %d)", e.eng.NumRecords(), e.seq.Load())
	}
	rel := dataset.New("relation", e.columns)
	for i, row := range rows {
		if err := e.checkUTF8(row); err != nil {
			return fmt.Errorf("durable: bootstrap row %d: %w", i, err)
		}
		if err := rel.Append(row); err != nil {
			return err
		}
	}
	eng, err := core.Bootstrap(rel, e.eng.Config())
	if err != nil {
		return err
	}
	e.eng = eng
	if e.feed != nil {
		// A bootstrap replaces the engine state without a frame a follower
		// could replay, so it consumes one sequence number: the durability
		// jump drops the feed's ring, a tailing follower falls below the
		// floor, and catch-up installs the bootstrap checkpoint.
		e.seq.Add(1)
	}
	// The bootstrapped state must be durable before Bootstrap returns;
	// failing here leaves memory ahead of disk, so poison.
	if err := e.writeCheckpoint(); err != nil {
		e.poison(err)
		return err
	}
	if err := e.committer.Exclusive(e.log.Reset); err != nil {
		e.poison(err)
		return err
	}
	if e.feed != nil {
		e.committer.Appended(e.seq.Load())
		e.committer.MarkSynced(e.seq.Load())
		e.feed.Durable(e.seq.Load())
	}
	// The core engine was swapped out, so the snapshot chain restarts
	// from scratch (no copy-on-write predecessor).
	e.lastStaged = e.eng.BuildResults(nil, e.seq.Load(), e.columns, nil, nil)
	e.publish(e.lastStaged)
	return nil
}

// Close writes a final checkpoint (so the next Open restores without
// replay), shuts the committer down, and releases the storage. A poisoned
// engine skips the checkpoint — its in-memory state must not overwrite
// the durable one. Close must be externally serialized with Stage and
// Checkpoint; in-flight Waits are released by the final checkpoint (or
// fail with wal.ErrCommitterClosed if it could not run).
func (e *Engine) Close() error {
	var cpErr error
	if e.Poisoned() == nil {
		cpErr = e.Checkpoint()
	}
	// After this, any waiter the checkpoint did not cover fails instead
	// of hanging on a committer whose file is about to go away.
	e.committer.Close()
	if err := e.st.Close(); err != nil && cpErr == nil {
		cpErr = err
	}
	return cpErr
}

// Seq returns the sequence number of the last staged batch. It is safe
// from any goroutine (the read path reports staleness as Seq minus the
// published snapshot's sequence).
func (e *Engine) Seq() uint64 { return e.seq.Load() }

// SyncStats reports how many WAL fsyncs the commit path has performed and
// their cumulative wall-clock time — the durability cost of the write
// path. With group commit the count is O(sync groups), not O(batches).
func (e *Engine) SyncStats() (count int, total time.Duration) {
	return e.committer.Stats()
}

// Columns returns the schema.
func (e *Engine) Columns() []string { return append([]string(nil), e.columns...) }

// Core exposes the wrapped engine for reads, invariant checks, and
// snapshotting. Mutating it directly bypasses the WAL — don't.
func (e *Engine) Core() *core.Engine { return e.eng }

// Poisoned returns the error that poisoned the engine, or nil.
func (e *Engine) Poisoned() error {
	e.poisonMu.Lock()
	defer e.poisonMu.Unlock()
	return e.poisoned
}

// LastCheckpointErr returns the outcome of the most recent automatic
// checkpoint attempt (nil when it succeeded or none ran yet). Safe from
// any goroutine.
func (e *Engine) LastCheckpointErr() error {
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	return e.lastCheckpoint
}

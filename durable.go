package dynfd

import (
	"fmt"
	"time"

	"dynfd/internal/durable"
	"dynfd/internal/wal"
)

// ErrCommitQueueFull is returned by Apply and ApplyStaged when the
// bounded commit queue configured with WithCommitQueue is at capacity.
// The batch was rejected before anything was logged or applied; retrying
// after in-flight commits drain is safe.
var ErrCommitQueueFull = wal.ErrCommitQueueFull

// DurableMonitor is a Monitor whose state survives crashes: every applied
// batch is appended to a write-ahead log and fsynced before Apply returns,
// and checkpoints periodically fold the log into an atomically-replaced
// snapshot on disk. Opening the same directory again — after a clean Close
// or after the process was killed mid-batch — resumes with exactly the FDs
// of the last acknowledged batch.
//
//	mon, _ := dynfd.OpenDurable("/var/lib/dynfd", []string{"zip", "city"})
//	defer mon.Close()
//	_ = mon.Bootstrap(initialRows)
//	diff, _ := mon.Apply(dynfd.Insert("14482", "Potsdam")) // durable once returned
//
// Mutations (Bootstrap, Apply, ApplyStaged, Checkpoint, Drop-style
// Close) must be externally serialized, like on a plain Monitor. The
// concurrent surface is deliberately narrow: Snapshot, Seq, WALStats,
// Err, and Commit.Wait are safe from any goroutine at any time, which is
// what lets a server answer reads from the last published snapshot while
// a writer streams batches.
type DurableMonitor struct {
	columns  []string
	colIndex map[string]int
	eng      *durable.Engine
	ro       *Monitor // read-only view over the same core engine
}

// OpenDurable opens (or creates) a durable monitor rooted at dir. For a
// new directory, columns defines the schema; for an existing one, the
// schema is recovered from the checkpoint and columns — when non-nil —
// is verified against it. Options other than WithCheckpointEvery only
// take effect when the store is created; a recovered store keeps its
// saved configuration.
func OpenDurable(dir string, columns []string, opts ...Option) (*DurableMonitor, error) {
	return openDurable(dir, columns, durable.Open, opts)
}

// OpenReplica creates a durable monitor in dir at a primary's checkpoint
// blob (from CheckpointBlob), so a follower starts at the primary's state
// instead of replaying its whole history. The blob is decoded once,
// persisted as the store's checkpoint, and restored; the schema and
// configuration are the checkpoint's. It refuses a directory that already
// holds a store. Later opens of dir go through OpenDurable.
func OpenReplica(dir string, blob []byte, opts ...Option) (*DurableMonitor, error) {
	return openDurable(dir, nil, func(st durable.Storage, o durable.Options) (*durable.Engine, error) {
		return durable.OpenSeeded(st, blob, o)
	}, opts)
}

// openDurable opens the store in dir through open: durable.Open, or
// durable.OpenSeeded at a primary's checkpoint.
func openDurable(dir string, columns []string, open func(durable.Storage, durable.Options) (*durable.Engine, error), opts []Option) (*DurableMonitor, error) {
	o := options{pruning: AllPruning()}
	for _, opt := range opts {
		opt(&o)
	}
	colIndex := make(map[string]int, len(columns))
	for i, c := range columns {
		colIndex[c] = i
	}
	cfg, err := coreConfig(o, colIndex)
	if err != nil {
		return nil, err
	}
	st, err := durable.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	dopts := durable.Options{
		Columns:         columns,
		Config:          cfg,
		CheckpointEvery: o.checkpointEvery,
		SyncMaxDelay:    o.syncMaxDelay,
		CommitQueue:     o.commitQueue,
		Feed:            o.feed,
	}
	eng, err := open(st, dopts)
	if err != nil {
		st.Close()
		return nil, err
	}
	return newDurableMonitor(eng), nil
}

func newDurableMonitor(eng *durable.Engine) *DurableMonitor {
	cols := eng.Columns()
	m := &DurableMonitor{
		columns:  cols,
		colIndex: make(map[string]int, len(cols)),
		eng:      eng,
		ro: &Monitor{
			columns:  cols,
			colIndex: make(map[string]int, len(cols)),
			engine:   eng.Core(),
			booted:   true,
		},
	}
	for i, c := range cols {
		m.colIndex[c] = i
		m.ro.colIndex[c] = i
	}
	return m
}

// Columns returns the schema of the monitored relation.
func (m *DurableMonitor) Columns() []string { return append([]string(nil), m.columns...) }

// Bootstrap loads and profiles initial tuples, then checkpoints them. It
// is only valid on a store that has never held records or batches.
func (m *DurableMonitor) Bootstrap(rows [][]string) error {
	if err := m.eng.Bootstrap(rows); err != nil {
		return err
	}
	m.ro.engine = m.eng.Core() // bootstrap swaps the core engine
	return nil
}

// Apply durably incorporates one batch of changes and returns the FD
// diff. When Apply returns nil, the batch has been fsynced to the
// write-ahead log: it survives any subsequent crash. Concurrent callers
// must serialize externally; their fsyncs are still coalesced when they
// pipeline through ApplyStaged instead.
func (m *DurableMonitor) Apply(changes ...Change) (Diff, error) {
	b, err := toBatch(changes)
	if err != nil {
		return Diff{}, err
	}
	res, err := m.eng.Apply(b)
	if err != nil {
		return Diff{}, err
	}
	return toDiff(res), nil
}

// Commit is the durability handle of a staged batch: Wait blocks until
// the batch is crash-durable (covered by a group fsync or folded into a
// checkpoint) and the matching result snapshot is published. Wait is
// safe to call from any goroutine; calling it more than once is allowed
// and returns the same outcome.
type Commit struct {
	p *durable.Pending
}

// Wait blocks until the staged batch is durable, then publishes its
// snapshot. A non-nil error means the batch is NOT acknowledged — the
// monitor has poisoned itself and Err reports the failure.
func (c *Commit) Wait() error { return c.p.Wait() }

// ApplyStaged stages one batch — logs it, applies it in memory, returns
// the FD diff — without waiting for the fsync. The caller must invoke
// Wait on the returned Commit (typically after releasing whatever lock
// serializes staging) before acknowledging the batch to anyone: until
// Wait returns nil the batch may be lost by a crash, and the published
// snapshot does not include it. Staging calls must be externally
// serialized; the Waits may overlap freely, which is what lets the
// group committer fold many concurrent batches into one fsync.
func (m *DurableMonitor) ApplyStaged(changes ...Change) (Diff, *Commit, error) {
	b, err := toBatch(changes)
	if err != nil {
		return Diff{}, nil, err
	}
	res, p, err := m.eng.Stage(b)
	if err != nil {
		return Diff{}, nil, err
	}
	return toDiff(res), &Commit{p: p}, nil
}

// Checkpoint folds the write-ahead log into a fresh snapshot now, instead
// of waiting for the automatic interval.
func (m *DurableMonitor) Checkpoint() error { return m.eng.Checkpoint() }

// ChangeFeed is the replication hook a WAL-shipping primary attaches with
// WithChangeFeed; repl.Feed implements it. See internal/durable.ChangeFeed
// for the contract.
type ChangeFeed = durable.ChangeFeed

// ApplyReplicated durably applies one frame shipped from a replication
// primary: seq must be exactly Seq()+1 and payload the batch encoding as
// the primary logged it, normally followed by the batch's cover delta,
// which lets the replica patch its covers instead of re-running DynFD
// (DESIGN.md §15). Like Apply, calls must be externally serialized;
// a nil return means the frame survives any subsequent crash of this
// replica.
func (m *DurableMonitor) ApplyReplicated(seq uint64, payload []byte) error {
	return m.eng.ApplyReplicated(seq, payload)
}

// Promote durably bumps the monitor's fencing epoch by one and returns
// the new epoch — the follower-to-primary transition of the failover
// protocol (DESIGN.md §16). The promotion is recorded in the WAL, so it
// survives any subsequent crash and ships in-band to downstream
// followers. Must be externally serialized like Apply.
func (m *DurableMonitor) Promote() (uint64, error) { return m.eng.Promote() }

// Epoch returns the fencing epoch the monitor's state belongs to (0 until
// the first promotion). Safe from any goroutine.
func (m *DurableMonitor) Epoch() uint64 { return m.eng.Epoch() }

// EpochStart returns the WAL sequence at which the current fencing epoch
// began (0 for epoch 0). Safe from any goroutine.
func (m *DurableMonitor) EpochStart() uint64 { return m.eng.EpochStart() }

// InstallReplicaCheckpoint replaces the monitor's state with a primary
// checkpoint ahead of it — the follower catch-up step when the primary no
// longer retains the monitor's WAL position, or when a higher fencing
// epoch forces a fenced ex-primary to discard its divergent tail. Must be
// externally serialized like Apply.
func (m *DurableMonitor) InstallReplicaCheckpoint(blob []byte) error {
	if err := m.eng.InstallCheckpoint(blob); err != nil {
		return err
	}
	m.ro.engine = m.eng.Core() // the install swaps the core engine
	return nil
}

// CheckpointBlob returns a checkpoint blob covering at least minSeq (a
// fresh checkpoint is forced when the stored one is older), plus the
// sequence it covers — the primary side of follower catch-up. Must be
// externally serialized like Checkpoint.
func (m *DurableMonitor) CheckpointBlob(minSeq uint64) ([]byte, uint64, error) {
	return m.eng.CheckpointBlob(minSeq)
}

// Seq returns the sequence number of the last staged batch. After Apply
// (or ApplyStaged + Wait) returned nil it is also the last durable
// sequence; while commits are in flight it may run ahead of the
// published Snapshot's Seq by exactly those batches. Safe to call from
// any goroutine.
func (m *DurableMonitor) Seq() uint64 { return m.eng.Seq() }

// Close writes a final checkpoint and releases the store. The monitor
// must not be used afterwards.
func (m *DurableMonitor) Close() error { return m.eng.Close() }

// FDs returns the current minimal, non-trivial FDs in deterministic order.
func (m *DurableMonitor) FDs() []FD { return m.ro.FDs() }

// NonFDs returns the current maximal non-FDs.
func (m *DurableMonitor) NonFDs() []FD { return m.ro.NonFDs() }

// NumRecords returns the current tuple count.
func (m *DurableMonitor) NumRecords() int { return m.ro.NumRecords() }

// Record returns the current values of a live record.
func (m *DurableMonitor) Record(id int64) ([]string, bool) { return m.ro.Record(id) }

// Lookup returns the ids of live records whose values equal the tuple.
func (m *DurableMonitor) Lookup(values []string) ([]int64, error) { return m.ro.Lookup(values) }

// ForEachRecord visits every live record in unspecified order; see
// Monitor.ForEachRecord.
func (m *DurableMonitor) ForEachRecord(f func(id int64, values []string) bool) {
	m.ro.ForEachRecord(f)
}

// Holds reports whether the FD lhsColumns → rhsColumn currently holds.
func (m *DurableMonitor) Holds(lhsColumns []string, rhsColumn string) (bool, error) {
	return m.ro.Holds(lhsColumns, rhsColumn)
}

// Violations explains why an FD does not hold; see Monitor.Violations.
func (m *DurableMonitor) Violations(lhsColumns []string, rhsColumn string, max int) ([]ViolationGroup, float64, error) {
	return m.ro.Violations(lhsColumns, rhsColumn, max)
}

// FormatFD renders an FD with the monitor's column names.
func (m *DurableMonitor) FormatFD(f FD) string { return m.ro.FormatFD(f) }

// Stats returns the accumulated maintenance counters.
func (m *DurableMonitor) Stats() Stats { return m.ro.Stats() }

// WALStats summarizes write-ahead-log fsync activity since the monitor was
// opened.
type WALStats struct {
	// Syncs is the number of fsyncs the commit path performed.
	Syncs int
	// SyncTime is the cumulative wall-clock time spent in those fsyncs.
	SyncTime time.Duration
}

// WALStats reports the durability cost of the write path: every Apply
// fsyncs the write-ahead log once before it is acknowledged.
func (m *DurableMonitor) WALStats() WALStats {
	n, total := m.eng.SyncStats()
	return WALStats{Syncs: n, SyncTime: total}
}

// CheckInvariants verifies the monitor's cross-structure invariants.
func (m *DurableMonitor) CheckInvariants() error { return m.ro.CheckInvariants() }

// Err surfaces background durability problems: the poisoning error if a
// write-ahead failure froze the monitor, or the most recent automatic
// checkpoint failure. A healthy monitor returns nil.
func (m *DurableMonitor) Err() error {
	if err := m.eng.Poisoned(); err != nil {
		return err
	}
	if err := m.eng.LastCheckpointErr(); err != nil {
		return fmt.Errorf("dynfd: last checkpoint failed: %w", err)
	}
	return nil
}

package wal

import (
	"errors"
	"sync"
	"time"
)

// ErrCommitterClosed is returned to waiters whose sync can no longer
// happen because the committer shut down.
var ErrCommitterClosed = errors.New("wal: group committer closed")

// GroupCommitter coalesces the fsyncs of concurrent commit waiters into
// shared sync groups (leader/follower group commit). Appends themselves
// stay externally serialized — the engine appends under its mutation lock
// and records the high-water sequence via Appended — but WaitSynced is
// called outside that lock, so many in-flight batches wait together: the
// first waiter to find no sync in flight becomes the leader, captures the
// current high-water mark, runs one fsync, and wakes everyone at or below
// it. Batches appended while that fsync ran are picked up by the next
// leader, so the fsync count is O(sync groups), not O(batches).
//
// Durability can also arrive without an fsync: a checkpoint that persists
// the engine state at sequence S covers every batch at or below S, and the
// engine reports it via MarkSynced. Exclusive brackets such checkpoint/log
// -reset critical sections so they never overlap an in-flight fsync.
type GroupCommitter struct {
	mu   sync.Mutex
	cond *sync.Cond

	sync func() error // the underlying fsync

	appended uint64 // high-water appended sequence
	synced   uint64 // high-water durable sequence
	syncing  bool   // a leader's fsync is in flight
	blocked  bool   // an Exclusive section is in flight
	err      error  // sticky failure; every waiter observes it
	closed   bool

	syncs     int           // fsyncs performed
	syncTotal time.Duration // wall-clock time spent in them
}

// NewGroupCommitter returns a committer over the given fsync function.
// base is the already-durable sequence: waits at or below it return
// immediately.
func NewGroupCommitter(syncFn func() error, base uint64) *GroupCommitter {
	g := &GroupCommitter{sync: syncFn, appended: base, synced: base}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Check reports the sticky error after a failed fsync or Poison, or
// ErrCommitterClosed after Close, and nil otherwise. It has no side
// effects; the caller runs it before each append, so nothing is appended
// to a log whose committer can no longer make it durable.
func (g *GroupCommitter) Check() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	if g.closed {
		return ErrCommitterClosed
	}
	return nil
}

// Appended records that the record with the given sequence has been
// appended (not yet synced). Calls must be externally serialized and in
// ascending sequence order — the engine calls it under its mutation lock.
func (g *GroupCommitter) Appended(seq uint64) {
	g.mu.Lock()
	if seq > g.appended {
		g.appended = seq
	}
	g.mu.Unlock()
}

// WaitSynced blocks until the record with the given sequence is durable —
// covered by an fsync or folded into a checkpoint — or until the committer
// fails or closes. The calling goroutine may be elected leader and run the
// group's fsync itself.
func (g *GroupCommitter) WaitSynced(seq uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.synced >= seq {
			return nil
		}
		if g.err != nil {
			return g.err
		}
		if g.closed {
			return ErrCommitterClosed
		}
		if !g.syncing && !g.blocked {
			g.leadSync()
			continue // re-check: our seq may still be uncovered
		}
		g.cond.Wait()
	}
}

// leadSync runs one group fsync as the leader. Called and returns with
// g.mu held; the lock is released around the fsync itself.
func (g *GroupCommitter) leadSync() {
	g.syncing = true
	// The fsync covers everything appended up to here. Later appends may
	// also land on disk, but only the captured target is claimed — their
	// durability is the next group's job.
	target := g.appended
	g.mu.Unlock()
	start := time.Now()
	err := g.sync()
	d := time.Since(start)
	g.mu.Lock()
	g.syncing = false
	g.syncs++
	g.syncTotal += d
	if err != nil {
		if g.err == nil {
			g.err = err
		}
	} else if target > g.synced {
		g.synced = target
	}
	g.cond.Broadcast()
}

// Rewind resets both high-water marks to seq after the engine's state was
// replaced wholesale at a position that may lie BEHIND the previous marks —
// the fencing-epoch checkpoint install that discards a divergent tail
// (DESIGN.md §16). Without it a later append at old-seq+1 would find
// synced already past it and be reported durable without an fsync. The
// caller must guarantee no waiter is in flight above seq: installs are
// externally serialized with staging, and the follower replay loop
// completes each batch's wait before the next mutation.
func (g *GroupCommitter) Rewind(seq uint64) {
	g.mu.Lock()
	g.appended = seq
	g.synced = seq
	g.cond.Broadcast()
	g.mu.Unlock()
}

// MarkSynced records that every sequence at or below seq is durable
// through a checkpoint, waking the covered waiters without an fsync.
func (g *GroupCommitter) MarkSynced(seq uint64) {
	g.mu.Lock()
	if seq > g.synced {
		g.synced = seq
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Exclusive runs fn with no fsync in flight and no new leader starting —
// the bracket the engine's checkpoint/log-reset sections need, since a
// log truncation must never race a sync. Waiters keep waiting while fn
// runs; the caller typically follows up with MarkSynced.
func (g *GroupCommitter) Exclusive(fn func() error) error {
	g.mu.Lock()
	for g.syncing || g.blocked {
		g.cond.Wait()
	}
	g.blocked = true
	g.mu.Unlock()
	err := fn()
	g.mu.Lock()
	g.blocked = false
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// Poison sets the sticky error (first one wins) and wakes every waiter.
func (g *GroupCommitter) Poison(err error) {
	g.mu.Lock()
	if g.err == nil && err != nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Close marks the committer closed: unsatisfied waiters and future
// Check/WaitSynced calls fail with ErrCommitterClosed; already-durable
// waits still succeed.
func (g *GroupCommitter) Close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Stats reports the fsyncs performed and their cumulative wall-clock time.
func (g *GroupCommitter) Stats() (syncs int, total time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncs, g.syncTotal
}

// Package repl_test proves the WAL-shipping replication protocol end to
// end over real HTTP: a primary DurableMonitor with an attached change
// feed streams frames to followers that replay into their own durable
// engines, with checkpoint catch-up whenever the frame ring has moved on.
package repl_test

import (
	"sync"
	"testing"
	"time"
)

// TestFollowerTailConvergence: a follower started alongside the primary
// replays the pure frame stream — no checkpoint install — and ends with a
// query surface identical to the direct-replay oracle.
func TestFollowerTailConvergence(t *testing.T) {
	t.Parallel()
	const n = 20
	batches, states := genWorkload(t, n)
	src, client := startPrimary(t, 1024, 0)
	mon, fol, stop := runFollower(t, client, t.TempDir(), testCols)
	for _, b := range batches {
		src.apply(t, b)
	}
	waitSeq(t, mon, n)
	stop() // join the replay goroutine before reading its counters
	if got := fol.Installs(); got != 0 {
		t.Fatalf("pure tail needed %d checkpoint installs", got)
	}
	if got := fol.Applied(); got != n {
		t.Fatalf("follower applied %d frames, want %d", got, n)
	}
	if got := fol.PrimarySeq(); got != n {
		t.Fatalf("PrimarySeq = %d, want %d", got, n)
	}
	checkConverged(t, mon, stop, states[n])
}

// TestFollowerCheckpointCatchUp: a follower joining after the ring evicted
// its position must install a checkpoint (410 Gone on the tail), then keep
// tailing live frames from the installed sequence.
func TestFollowerCheckpointCatchUp(t *testing.T) {
	t.Parallel()
	const n = 20
	batches, states := genWorkload(t, n+5)
	src, client := startPrimary(t, 4, 0)
	for _, b := range batches[:n] {
		src.apply(t, b)
	}
	mon, fol, stop := runFollower(t, client, t.TempDir(), testCols)
	waitSeq(t, mon, n)
	// catchUp counts an install only after the install has published the
	// new seq, so the counter may trail the seq waitSeq just observed.
	deadline := time.Now().Add(20 * time.Second)
	for fol.Installs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale join converged without a checkpoint install")
		}
		time.Sleep(time.Millisecond)
	}
	// Live tail after the install: the remaining batches arrive as frames.
	for _, b := range batches[n:] {
		src.apply(t, b)
	}
	waitSeq(t, mon, n+5)
	checkConverged(t, mon, stop, states[n+5])
}

// TestCatchUpEquivalence is the satellite property: a follower joining
// from an empty store, from a seeded (possibly stale) checkpoint, or
// while the primary checkpoints mid-stream always converges to the same
// consistency-clean state as replaying every batch directly.
func TestCatchUpEquivalence(t *testing.T) {
	t.Parallel()
	const n = 24

	t.Run("fresh-join-mid-stream", func(t *testing.T) {
		t.Parallel()
		batches, states := genWorkload(t, n)
		src, client := startPrimary(t, 6, 3)
		src.trackWitnesses(t)
		for _, b := range batches[:n/2] {
			src.apply(t, b)
		}
		mon, _, stop, counts := runCheckedFollower(t, client, openIn(t.TempDir(), testCols), src, batches)
		for _, b := range batches[n/2:] {
			src.apply(t, b)
		}
		waitSeq(t, mon, n)
		checkConverged(t, mon, stop, states[n])
		checkShadow(t, counts, false) // the join may install at the end
	})

	t.Run("seeded-checkpoint", func(t *testing.T) {
		t.Parallel()
		batches, states := genWorkload(t, n)
		src, client := startPrimary(t, 1024, 0)
		src.trackWitnesses(t)
		for _, b := range batches[:5] {
			src.apply(t, b)
		}
		// Fold the first five batches into the stored checkpoint so the
		// seed blob actually carries state (the floor alone would accept
		// the initial empty checkpoint).
		src.mu.Lock()
		err := src.mon.Checkpoint()
		src.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		blob, seq, err := src.ReplCheckpoint("t")
		if err != nil {
			t.Fatal(err)
		}
		if seq != 5 {
			t.Fatalf("checkpoint at seq %d, want 5", seq)
		}
		// The seeded store takes its schema from the checkpoint.
		mon, fol, stop, counts := runCheckedFollower(t, client, seedIn(t.TempDir(), blob), src, batches)
		if got := mon.Seq(); got != 5 {
			t.Fatalf("seeded store opened at seq %d, want 5", got)
		}
		for _, b := range batches[5:] {
			src.apply(t, b)
		}
		waitSeq(t, mon, n)
		stop() // join the replay goroutine before reading its counters
		if got := fol.Installs(); got != 0 {
			t.Fatalf("seed join within the ring installed %d checkpoints", got)
		}
		if got := fol.Applied(); got != n-5 {
			t.Fatalf("seed join applied %d frames, want %d", got, n-5)
		}
		checkConverged(t, mon, stop, states[n])
		checkShadow(t, counts, true)
	})

	t.Run("stale-seed-reinstalls", func(t *testing.T) {
		t.Parallel()
		batches, states := genWorkload(t, n)
		src, client := startPrimary(t, 4, 0)
		src.trackWitnesses(t)
		for _, b := range batches[:5] {
			src.apply(t, b)
		}
		blob, _, err := src.ReplCheckpoint("t")
		if err != nil {
			t.Fatal(err)
		}
		// Outrun the ring before the seeded follower connects: its position
		// (5) falls below the floor, so the join must re-install.
		for _, b := range batches[5:] {
			src.apply(t, b)
		}
		mon, fol, stop, counts := runCheckedFollower(t, client, seedIn(t.TempDir(), blob), src, batches)
		waitSeq(t, mon, n)
		// Join the replay goroutine before reading its counters: an install
		// publishes the sequence before it counts itself.
		stop()
		if got := fol.Installs(); got == 0 {
			t.Fatal("stale seed converged without re-installing a checkpoint")
		}
		checkConverged(t, mon, stop, states[n])
		checkShadow(t, counts, false)
	})

	t.Run("mid-compaction-stream", func(t *testing.T) {
		t.Parallel()
		batches, states := genWorkload(t, n)
		// CheckpointEvery 3: the primary folds its WAL while frames are in
		// flight, proving streaming does not depend on WAL file history.
		src, client := startPrimary(t, 4, 3)
		src.trackWitnesses(t)
		mon, _, stop, counts := runCheckedFollower(t, client, openIn(t.TempDir(), testCols), src, batches)
		for _, b := range batches {
			src.apply(t, b)
			time.Sleep(time.Millisecond)
		}
		waitSeq(t, mon, n)
		checkConverged(t, mon, stop, states[n])
		checkShadow(t, counts, false) // a slow follower may install instead
	})
}

// TestFollowerRestartResumes: a follower stopped and restarted over the
// same directory resumes from its recovered sequence instead of replaying
// or re-installing from scratch.
func TestFollowerRestartResumes(t *testing.T) {
	t.Parallel()
	const n = 16
	batches, states := genWorkload(t, n)
	src, client := startPrimary(t, 1024, 0)
	dir := t.TempDir()
	mon, _, stop := runFollower(t, client, dir, testCols)
	for _, b := range batches[:n/2] {
		src.apply(t, b)
	}
	waitSeq(t, mon, n/2)
	stop()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[n/2:] {
		src.apply(t, b)
	}
	mon2, fol2, stop2 := runFollower(t, client, dir, nil)
	waitSeq(t, mon2, n)
	stop2() // join the replay goroutine before reading its counters
	if got := fol2.Applied(); got != n/2 {
		t.Fatalf("restarted follower applied %d frames, want %d", got, n/2)
	}
	checkConverged(t, mon2, stop2, states[n])
}

// TestStalenessObservables is the bounded-staleness property at the
// replication layer: while a writer commits on the primary, a concurrent
// observer of the follower must always see PrimarySeq at or above the
// applied sequence (lag is never negative), the applied sequence must be
// monotone, and once the writer stops the lag must drain to zero with the
// stream still connected.
func TestStalenessObservables(t *testing.T) {
	t.Parallel()
	const n = 30
	batches, states := genWorkload(t, n)
	src, client := startPrimary(t, 1024, 0)
	mon, fol, stop := runFollower(t, client, t.TempDir(), testCols)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			src.apply(t, b)
			time.Sleep(time.Millisecond)
		}
	}()

	var lastSeq uint64
	deadline := time.Now().Add(20 * time.Second)
	for {
		// Read order matters: sampling the applied sequence first makes
		// PrimarySeq — which the follower advances before applying — an
		// upper bound, so the derived lag can never be negative.
		seq := mon.Seq()
		primary := fol.PrimarySeq()
		if primary < seq {
			t.Fatalf("negative lag: primarySeq %d < applied %d", primary, seq)
		}
		if seq < lastSeq {
			t.Fatalf("non-monotonic reads: seq %d after %d", seq, lastSeq)
		}
		lastSeq = seq
		if seq == n && primary == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never drained: seq %d primarySeq %d", seq, primary)
		}
	}
	wg.Wait()
	if !fol.Connected() {
		t.Fatal("follower disconnected after drain")
	}
	checkConverged(t, mon, stop, states[n])
}

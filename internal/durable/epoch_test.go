package durable

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynfd/internal/faultio"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// TestPromoteSurvivesCrashReplay promotes mid-stream, "kills" the process
// (no Close), and requires recovery to restore the epoch from the WAL
// promotion record — a promotion that returned nil is never forgotten.
func TestPromoteSurvivesCrashReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Apply(insertBatch(fmt.Sprint(i), "x", "p")); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := eng.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || eng.Epoch() != 1 || eng.EpochStart() != 3 || eng.Seq() != 3 {
		t.Fatalf("after promote: epoch=%d/%d start=%d seq=%d, want 1/1 start 3 seq 3",
			epoch, eng.Epoch(), eng.EpochStart(), eng.Seq())
	}
	if _, err := eng.Apply(insertBatch("9", "y", "q")); err != nil {
		t.Fatal(err)
	}
	want := fdsOf(eng)
	// No Close: the promotion and trailing batch live only in the WAL.

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(st2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Seq() != 4 || eng2.Epoch() != 1 || eng2.EpochStart() != 3 {
		t.Fatalf("recovered seq=%d epoch=%d start=%d, want 4/1/3", eng2.Seq(), eng2.Epoch(), eng2.EpochStart())
	}
	if got := fdsOf(eng2); got != want {
		t.Fatalf("FDs after recovery:\n got %s\nwant %s", got, want)
	}
	if err := eng2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A second promotion on the recovered engine, folded into the final
	// checkpoint by Close, must survive through the manifest alone.
	if epoch, err := eng2.Promote(); err != nil || epoch != 2 {
		t.Fatalf("second promote: epoch=%d err=%v, want 2/nil", epoch, err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	eng3, err := Open(st3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if eng3.Epoch() != 2 || eng3.EpochStart() != 5 {
		t.Fatalf("epoch after checkpointed reopen: %d start %d, want 2 start 5", eng3.Epoch(), eng3.EpochStart())
	}
}

// TestReplicatedPromotion ships a promotion record in-band through
// ApplyReplicated: the follower adopts the epoch at the same sequence,
// stale and malformed promotions are rejected without consuming a
// sequence, and the adopted epoch survives crash/replay.
func TestReplicatedPromotion(t *testing.T) {
	t.Parallel()
	mem := faultio.NewMem()
	eng, err := Open(mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	record, err := stream.AppendRecord(nil, insertBatch("1", "x", "p").Changes)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyReplicated(1, record); err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyReplicated(2, wal.EncodePromotion(3)); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 3 || eng.EpochStart() != 2 || eng.Seq() != 2 {
		t.Fatalf("epoch=%d start=%d seq=%d, want 3/2/2", eng.Epoch(), eng.EpochStart(), eng.Seq())
	}

	// A promotion that does not advance the epoch is divergence, not replay.
	if err := eng.ApplyReplicated(3, wal.EncodePromotion(3)); err == nil || !strings.Contains(err.Error(), "already at") {
		t.Fatalf("stale promotion: got %v, want 'already at' error", err)
	}
	// A malformed control payload must fail loudly, not apply as data.
	if err := eng.ApplyReplicated(3, wal.EncodePromotion(5)[:10]); !errors.Is(err, wal.ErrBadControl) {
		t.Fatalf("truncated promotion: got %v, want ErrBadControl", err)
	}
	if eng.Seq() != 2 || eng.Epoch() != 3 {
		t.Fatalf("rejected frames moved state: seq=%d epoch=%d", eng.Seq(), eng.Epoch())
	}

	// Crash (drop unsynced bytes) and recover: the replicated promotion was
	// acknowledged, so it must still be there.
	eng2, err := Open(mem.Reopen(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Epoch() != 3 || eng2.EpochStart() != 2 || eng2.Seq() != 2 {
		t.Fatalf("recovered epoch=%d start=%d seq=%d, want 3/2/2", eng2.Epoch(), eng2.EpochStart(), eng2.Seq())
	}
}

// TestEpochForcedInstallDiscardsDivergentTail is the fenced-ex-primary
// rejoin: a node with an unshipped tail (seq 5, epoch 0) installs the
// winner's checkpoint from a HIGHER epoch at a LOWER sequence (seq 4,
// epoch 1). The install must be accepted, the divergent tail discarded
// wholesale, and — the Rewind regression — a batch acknowledged after the
// backward install must be genuinely fsynced, not falsely reported
// durable by the stale pre-install sync mark.
func TestEpochForcedInstallDiscardsDivergentTail(t *testing.T) {
	t.Parallel()
	shared := []stream.Batch{insertBatch("1", "x", "p"), insertBatch("2", "x", "q")}

	winner, err := Open(faultio.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range shared {
		if _, err := winner.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := winner.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := winner.Apply(insertBatch("3", "y", "p")); err != nil {
		t.Fatal(err)
	}
	blob, cpSeq, err := winner.CheckpointBlob(winner.Seq())
	if err != nil || cpSeq != 4 {
		t.Fatalf("CheckpointBlob: seq=%d err=%v, want 4/nil", cpSeq, err)
	}

	loserMem := faultio.NewMem()
	loser, err := Open(loserMem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range shared {
		if _, err := loser.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// The split-brain tail the winner never saw: acknowledged locally, lost
	// on rejoin — split-brain safety beats durability here by design.
	for i := 0; i < 3; i++ {
		if _, err := loser.Apply(insertBatch(fmt.Sprint("lost", i), "z", "r")); err != nil {
			t.Fatal(err)
		}
	}
	if loser.Seq() != 5 || loser.Epoch() != 0 {
		t.Fatalf("loser at seq=%d epoch=%d, want 5/0", loser.Seq(), loser.Epoch())
	}

	if err := loser.InstallCheckpoint(blob); err != nil {
		t.Fatalf("epoch-forced install: %v", err)
	}
	if loser.Seq() != 4 || loser.Epoch() != 1 || loser.EpochStart() != 3 {
		t.Fatalf("after install: seq=%d epoch=%d start=%d, want 4/1/3", loser.Seq(), loser.Epoch(), loser.EpochStart())
	}
	if got, want := fdsOf(loser), fdsOf(winner); got != want {
		t.Fatalf("installed state diverges:\n got %s\nwant %s", got, want)
	}
	if loser.NumRecords() != winner.NumRecords() {
		t.Fatalf("records: loser %d, winner %d", loser.NumRecords(), winner.NumRecords())
	}
	if err := loser.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Re-installing the same blob is a no-op refusal: same epoch, not ahead.
	if err := loser.InstallCheckpoint(blob); err == nil || !strings.Contains(err.Error(), "not ahead") {
		t.Fatalf("re-install: got %v, want 'not ahead' error", err)
	}

	// Rewind regression: the pre-install committer had synced=5; the next
	// batch lands at seq 5 again. Apply returning nil must mean a real
	// fsync, so a crash that drops every unsynced byte keeps the batch.
	if _, err := loser.Apply(insertBatch("after", "y", "q")); err != nil {
		t.Fatal(err)
	}
	want := fdsOf(loser)
	rec, err := Open(loserMem.Reopen(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq() != 5 || rec.Epoch() != 1 {
		t.Fatalf("recovered seq=%d epoch=%d, want 5/1 — acked post-install batch lost", rec.Seq(), rec.Epoch())
	}
	if got := fdsOf(rec); got != want {
		t.Fatalf("FDs after post-install recovery:\n got %s\nwant %s", got, want)
	}
}

// TestEpochForcedInstallRewindsFeed: the loser of a failover may itself
// feed downstream followers (chained replication). The backward checkpoint
// install must rewind the feed along with the committer — the ring's
// retained frames belong to the discarded history, and a downstream
// follower that installs the same winner checkpoint and re-tails with the
// matching epoch must never be served them, or it would apply divergent
// old-epoch frames onto winner state.
func TestEpochForcedInstallRewindsFeed(t *testing.T) {
	t.Parallel()
	shared := []stream.Batch{insertBatch("1", "x", "p"), insertBatch("2", "x", "q")}

	winner, err := Open(faultio.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range shared {
		if _, err := winner.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := winner.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := winner.Apply(insertBatch("3", "y", "p")); err != nil {
		t.Fatal(err)
	}
	blob, cpSeq, err := winner.CheckpointBlob(winner.Seq())
	if err != nil || cpSeq != 4 {
		t.Fatalf("CheckpointBlob: seq=%d err=%v, want 4/nil", cpSeq, err)
	}

	feed := repl.NewFeed(0, 8)
	opts := testOpts()
	opts.Feed = feed
	loser, err := Open(faultio.NewMem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range shared {
		if _, err := loser.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := loser.Apply(insertBatch(fmt.Sprint("lost", i), "z", "r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := feed.DurableSeq(); got != 5 {
		t.Fatalf("feed watermark before install = %d, want 5", got)
	}

	if err := loser.InstallCheckpoint(blob); err != nil {
		t.Fatalf("epoch-forced install: %v", err)
	}
	// The feed must be rewound to the installed sequence: watermark and
	// floor at 4, divergent frames 3..5 gone.
	if got := feed.DurableSeq(); got != 4 {
		t.Fatalf("feed watermark after install = %d, want 4", got)
	}
	if got := feed.Floor(); got != 4 {
		t.Fatalf("feed floor after install = %d, want 4", got)
	}
	// A downstream follower that installed the same winner checkpoint and
	// re-tails from it waits for new frames instead of receiving the
	// discarded divergent ones.
	frames, wait, err := feed.Next(4)
	if err != nil || frames != nil || wait == nil {
		t.Fatalf("Next(4) after install: frames=%v wait=%v err=%v", frames, wait, err)
	}
	// A mid-stream downstream still parked at the divergent high is bounced
	// to checkpoint catch-up.
	if _, _, err := feed.Next(5); !errors.Is(err, repl.ErrSnapshotNeeded) {
		t.Fatalf("Next(5) after install: err=%v, want ErrSnapshotNeeded", err)
	}

	// The next batch on the rejoined loser ships as the replacement frame 5.
	if _, err := loser.Apply(insertBatch("after", "y", "q")); err != nil {
		t.Fatal(err)
	}
	frames, _, err = feed.Next(4)
	if err != nil || len(frames) != 1 || frames[0].Seq != 5 {
		t.Fatalf("Next(4) after rejoin write: frames=%v err=%v, want the single replacement frame 5", frames, err)
	}
	var changes []stream.Change
	record, _, _ := wal.SplitTrailer(frames[0].Payload)
	if changes, err = stream.DecodeRecord(record); err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Values[0] != "after" {
		t.Fatalf("replacement frame carries %v, want the post-install batch", changes)
	}
}

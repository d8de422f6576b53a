package durable

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dynfd/internal/faultio"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// recordBatches is a short history with every change kind.
func recordBatches() []stream.Batch {
	return []stream.Batch{
		insertBatch("1", "x", "p"), insertBatch("1", "y", "p"), insertBatch("2", "x", "q"),
		{Changes: []stream.Change{
			{Kind: stream.Update, ID: 0, Values: []string{"3", "x", "p"}},
			{Kind: stream.Delete, ID: 1},
			{Kind: stream.Insert, Values: []string{"é", "ü", "p"}},
		}},
	}
}

func coversOf(e *Engine) string { return fmt.Sprint(e.Core().FDs(), e.Core().NonFDs()) }

func jsonLines(t *testing.T, changes []stream.Change) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteChanges(&buf, changes); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStageLogsBatchRecords: Stage logs every batch as a binary batch
// record that decodes back to the batch.
func TestStageLogsBatchRecords(t *testing.T) {
	t.Parallel()
	mem := faultio.NewMem()
	eng, err := Open(mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	batches := recordBatches()
	for _, b := range batches {
		if _, err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	data, err := mem.ReadLog()
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.Scan(data)
	if len(recs) != len(batches) {
		t.Fatalf("%d WAL records, want %d", len(recs), len(batches))
	}
	for i, rec := range recs {
		if !stream.IsRecord(rec.Payload) {
			t.Fatalf("record %d is not a batch record: %q", rec.Seq, rec.Payload)
		}
		want, _ := stream.AppendRecord(nil, batches[i].Changes)
		if !bytes.Equal(rec.Payload, want) {
			t.Fatalf("record %d = %x, want %x", rec.Seq, rec.Payload, want)
		}
	}
}

// TestLegacyJSONWALReplays: a WAL whose records are JSON-lines batches,
// as nodes logged them before batch records, replays to the same covers
// and records as the binary log of the same history.
func TestLegacyJSONWALReplays(t *testing.T) {
	t.Parallel()
	ref, err := Open(faultio.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	mem := faultio.NewMem()
	if _, err := Open(mem, testOpts()); err != nil { // writes the empty checkpoint
		t.Fatal(err)
	}
	for i, b := range recordBatches() {
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Log().Write(wal.AppendRecord(nil, uint64(i+1), jsonLines(t, b.Changes))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Seq() != ref.Seq() || coversOf(eng) != coversOf(ref) {
		t.Fatalf("legacy replay at seq %d covers %s, want seq %d covers %s", eng.Seq(), coversOf(eng), ref.Seq(), coversOf(ref))
	}
	for id := int64(0); id < 8; id++ {
		got, gok := eng.Core().Record(id)
		want, wok := ref.Core().Record(id)
		if gok != wok || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("record %d: legacy replay %v (%v), want %v (%v)", id, got, gok, want, wok)
		}
	}
}

// TestFollowerAppliesLegacyJSONFrames: a follower applies the frames of a
// primary that predates batch records — JSON-lines batches, with the
// cover-delta trailer and without — to the primary's covers, logs them
// verbatim, and recovers from that log.
func TestFollowerAppliesLegacyJSONFrames(t *testing.T) {
	t.Parallel()
	pfeed := repl.NewFeed(0, 64)
	popts := testOpts()
	popts.Feed = pfeed
	primary, err := Open(faultio.NewMem(), popts)
	if err != nil {
		t.Fatal(err)
	}
	batches := recordBatches()
	for _, b := range batches {
		if _, err := primary.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := pfeed.Next(0)
	if err != nil || len(frames) != len(batches) {
		t.Fatalf("primary feed holds %d frames (err %v)", len(frames), err)
	}
	for _, trailer := range []bool{true, false} {
		mem := faultio.NewMem()
		follower, err := Open(mem, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		var legacy [][]byte
		for i, fr := range frames {
			payload := jsonLines(t, batches[i].Changes)
			legacy = append(legacy, payload)
			frame := append([]byte(nil), payload...)
			if trailer {
				_, body, ok := wal.SplitTrailer(fr.Payload)
				if !ok {
					t.Fatalf("primary frame %d has no trailer", fr.Seq)
				}
				frame = wal.AppendTrailer(frame, body)
			}
			if err := follower.ApplyReplicated(fr.Seq, frame); err != nil {
				t.Fatalf("trailer %v: frame %d: %v", trailer, fr.Seq, err)
			}
		}
		if coversOf(follower) != coversOf(primary) {
			t.Fatalf("trailer %v: follower covers %s, primary %s", trailer, coversOf(follower), coversOf(primary))
		}
		if got, want := follower.Core().Stats().CoverPatches, len(frames); trailer && got != want {
			t.Fatalf("follower patched %d of %d legacy frames with trailers", got, want)
		}
		data, err := mem.ReadLog()
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := wal.Scan(data)
		for i, rec := range recs {
			if !bytes.Equal(rec.Payload, legacy[i]) {
				t.Fatalf("trailer %v: follower logged %q, want the legacy record %q", trailer, rec.Payload, legacy[i])
			}
		}
		recovered, err := Open(mem.Reopen(0), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if coversOf(recovered) != coversOf(primary) {
			t.Fatalf("trailer %v: recovered follower covers %s, primary %s", trailer, coversOf(recovered), coversOf(primary))
		}
	}
}

// TestNonUTF8ValuesRejected is the regression test for values that
// recovery used to change: JSON checkpoints, which older builds write and
// this one still reads, turn invalid UTF-8 into U+FFFD, so a durable
// engine that accepted "\xff" came back with different FDs after a
// restart. Stage, ApplyReplicated and Bootstrap refuse such values,
// naming the change and the attribute.
func TestNonUTF8ValuesRejected(t *testing.T) {
	t.Parallel()
	mem := faultio.NewMem()
	eng, err := Open(mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []stream.Batch{insertBatch("\xff", "x", "p"), insertBatch("\xfe", "y", "q")} {
		_, err := eng.Apply(b)
		if err == nil {
			t.Errorf("batch %q accepted", b.Changes[0].Values)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "change 0") || !strings.Contains(msg, "attribute 0 (a)") || !strings.Contains(msg, "UTF-8") {
			t.Errorf("error %q does not name the change and the attribute", msg)
		}
	}
	state := func(e *Engine) string {
		var recs []string
		e.Core().ForEachRecord(func(id int64, values []string) bool {
			recs = append(recs, fmt.Sprintf("%d:%q", id, values))
			return true
		})
		return fmt.Sprint(fdsOf(e), recs)
	}
	before := state(eng)
	// Recovery from the WAL (a crash) and from a checkpoint (a clean
	// close) must both bring back exactly what was acknowledged.
	replayed, err := Open(mem.Reopen(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if after := state(replayed); after != before {
		t.Fatalf("state changed across WAL replay: %s -> %s", before, after)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(mem.Reopen(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if after := state(reopened); after != before {
		t.Fatalf("state changed across a checkpoint: %s -> %s", before, after)
	}

	record, err := stream.AppendRecord(nil, []stream.Change{
		{Kind: stream.Insert, Values: []string{"1", "x", "p"}},
		{Kind: stream.Insert, Values: []string{"2", "y", "\xc3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.ApplyReplicated(reopened.Seq()+1, record); err == nil || !strings.Contains(err.Error(), "change 1") || !strings.Contains(err.Error(), "attribute 2 (c)") {
		t.Fatalf("ApplyReplicated of a non-UTF-8 value: %v", err)
	}

	fresh, err := Open(faultio.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.Bootstrap([][]string{{"1", "x", "p"}, {"2", "\xff", "q"}})
	if err == nil || !strings.Contains(err.Error(), "row 1") || !strings.Contains(err.Error(), "attribute 1 (b)") {
		t.Fatalf("Bootstrap of a non-UTF-8 value: %v", err)
	}
	if fresh.Core().NumRecords() != 0 {
		t.Fatalf("rejected bootstrap left %d records", fresh.Core().NumRecords())
	}
}

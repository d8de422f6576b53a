package durable

import (
	"fmt"
	"testing"

	"dynfd/internal/core"
	"dynfd/internal/faultio"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// TestReplicatedFrameFallbacks: a follower recomputes — and still ends at
// the primary's covers — whenever a frame's cover delta is unusable: no
// trailer (an older primary), a trailer that does not decode, or a delta
// that does not fit the batch. In each case the frame it forwards to its
// own feed carries its own, decodable delta, so a chained follower keeps
// patching.
func TestReplicatedFrameFallbacks(t *testing.T) {
	t.Parallel()
	pfeed := repl.NewFeed(0, 64)
	popts := testOpts()
	popts.Feed = pfeed
	primary, err := Open(faultio.NewMem(), popts)
	if err != nil {
		t.Fatal(err)
	}
	batches := []stream.Batch{
		insertBatch("1", "x", "p"), insertBatch("1", "y", "p"), insertBatch("2", "x", "q"),
		{Changes: []stream.Change{{Kind: stream.Delete, ID: 1}}},
	}
	for _, b := range batches {
		if _, err := primary.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := pfeed.Next(0)
	if err != nil || len(frames) != len(batches) {
		t.Fatalf("primary feed holds %d frames (err %v)", len(frames), err)
	}

	mangle := map[string]func(i int, frame []byte) []byte{
		"no trailer": func(_ int, frame []byte) []byte {
			record, _, _ := wal.SplitTrailer(frame)
			return record
		},
		"undecodable trailer": func(_ int, frame []byte) []byte {
			record, _, _ := wal.SplitTrailer(frame)
			return wal.AppendTrailer(append([]byte(nil), record...), []byte{0xff})
		},
		"misfit delta": func(i int, frame []byte) []byte {
			// The batch with the delta of the frame after it (the last
			// frame borrows the first one's).
			record, _, _ := wal.SplitTrailer(frame)
			_, other, _ := wal.SplitTrailer(frames[(i+1)%len(frames)].Payload)
			return wal.AppendTrailer(append([]byte(nil), record...), other)
		},
	}
	for name, fn := range mangle {
		ffeed := repl.NewFeed(0, 64)
		fopts := testOpts()
		fopts.Feed = ffeed
		follower, err := Open(faultio.NewMem(), fopts)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range frames {
			if err := follower.ApplyReplicated(fr.Seq, fn(i, fr.Payload)); err != nil {
				t.Fatalf("%s: frame %d: %v", name, fr.Seq, err)
			}
		}
		if got := follower.Core().Stats().CoverPatches; got != 0 {
			t.Fatalf("%s: follower patched %d batches from unusable deltas", name, got)
		}
		if got, want := fmt.Sprint(follower.Core().FDs(), follower.Core().NonFDs()), fmt.Sprint(primary.Core().FDs(), primary.Core().NonFDs()); got != want {
			t.Fatalf("%s: follower covers %s, primary %s", name, got, want)
		}
		forwarded, _, err := ffeed.Next(0)
		if err != nil || len(forwarded) != len(frames) {
			t.Fatalf("%s: follower feed holds %d frames (err %v)", name, len(forwarded), err)
		}
		for i, fr := range forwarded {
			record, body, ok := wal.SplitTrailer(fr.Payload)
			want, _, _ := wal.SplitTrailer(frames[i].Payload)
			if !ok || string(record) != string(want) {
				t.Fatalf("%s: forwarded frame %d is not the batch plus a trailer", name, fr.Seq)
			}
			if _, err := core.DecodeCoverDelta(body); err != nil {
				t.Fatalf("%s: forwarded frame %d: %v", name, fr.Seq, err)
			}
		}
		follower.Close()
	}
}

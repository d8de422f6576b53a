package repl_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"dynfd/internal/core"
	"dynfd/internal/durable"
	"dynfd/internal/faultio"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// FuzzReplFrameDecode fuzzes the replication wire decoder with arbitrary
// byte streams — truncated frames, bit-flipped frames, duplicated and
// reordered fragments. The invariants, for ANY input:
//
//   - the decoder never panics;
//   - the records it yields before its first error are exactly the records
//     wal.Scan accepts on the same bytes (so a frame the recovery path
//     would reject can never reach a follower's apply path);
//   - one-byte-at-a-time delivery (network fragmentation) yields the same
//     records and the same error class as one-shot delivery;
//   - the terminal error is one of the documented classes.
func FuzzReplFrameDecode(f *testing.F) {
	// Seed corpus: real streams as the primary produces them, plus the
	// interesting mutilations.
	var valid []byte
	valid = wal.AppendRecord(valid, 1, []byte("batch-one"))
	valid = wal.AppendRecord(valid, 2, nil) // heartbeat frame
	valid = wal.AppendRecord(valid, 3, bytes.Repeat([]byte{0xab}, 300))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                            // torn tail
	f.Add(valid[:17])                                      // torn mid-payload
	f.Add(valid[:8])                                       // torn mid-header
	f.Add(append(valid[:0:0], valid[16:]...))              // missing first header
	dup := append(append([]byte(nil), valid...), valid...) // duplicated stream
	f.Add(dup)
	flip := append([]byte(nil), valid...)
	flip[20] ^= 0x40 // bit flip inside a payload
	f.Add(flip)
	flip2 := append([]byte(nil), valid...)
	flip2[0] ^= 0x80 // bit flip in a length prefix
	f.Add(flip2)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		scanRecs, _ := wal.Scan(data)

		decode := func(r io.Reader) ([]wal.Record, error) {
			rd := wal.NewTailReader(r)
			var recs []wal.Record
			for {
				rec, err := rd.Next()
				if err != nil {
					return recs, err
				}
				recs = append(recs, rec)
			}
		}
		recs, err := decode(bytes.NewReader(data))
		if err == nil {
			t.Fatal("decoder terminated without an error")
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, wal.ErrCorruptFrame) {
			t.Fatalf("undocumented error class: %v", err)
		}
		if len(recs) != len(scanRecs) {
			t.Fatalf("decoder yielded %d records, Scan accepts %d", len(recs), len(scanRecs))
		}
		for i := range recs {
			if recs[i].Seq != scanRecs[i].Seq || !bytes.Equal(recs[i].Payload, scanRecs[i].Payload) {
				t.Fatalf("record %d differs from Scan's", i)
			}
		}

		// Fragmented delivery must be byte-for-byte equivalent.
		fragRecs, fragErr := decode(iotest(data))
		if len(fragRecs) != len(recs) {
			t.Fatalf("fragmented delivery yielded %d records, one-shot %d", len(fragRecs), len(recs))
		}
		if !sameErrClass(fragErr, err) {
			t.Fatalf("fragmented delivery error %v, one-shot %v", fragErr, err)
		}
	})
}

// iotest returns a reader that delivers data one byte per Read call.
func iotest(data []byte) io.Reader { return &oneByteReader{data: data} }

type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if len(p) > 0 {
		p[0] = r.data[0]
		r.data = r.data[1:]
		return 1, nil
	}
	return 0, nil
}

func sameErrClass(a, b error) bool {
	switch {
	case errors.Is(a, wal.ErrCorruptFrame):
		return errors.Is(b, wal.ErrCorruptFrame)
	case errors.Is(a, io.ErrUnexpectedEOF):
		return errors.Is(b, io.ErrUnexpectedEOF)
	case errors.Is(a, io.EOF):
		return errors.Is(b, io.EOF)
	default:
		return false
	}
}

// FuzzCoverDelta fuzzes the follower's frame split and cover-delta
// decoder with arbitrary frame payloads. For ANY input:
//
//   - neither SplitTrailer nor DecodeCoverDelta panics;
//   - a frame without a trailer is its own batch payload, and a frame
//     with one is exactly payload + trailer (AppendTrailer round-trips);
//   - a rejected delta fails with ErrBadCoverDelta;
//   - an accepted delta re-encodes to the same bytes, and every truncation
//     of it, and it with one byte appended, is rejected.
func FuzzCoverDelta(f *testing.F) {
	// Seed corpus: real frames as a primary ships them, a trailer-less
	// frame (an older primary's), and the interesting mutilations.
	cfg := core.DefaultConfig()
	feed := repl.NewFeed(0, 64)
	p, err := durable.Open(faultio.NewMem(), durable.Options{Columns: chaosCols, Config: cfg, CheckpointEvery: -1, Feed: feed})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range seedBatches() {
		if _, err := p.Apply(b); err != nil {
			f.Fatal(err)
		}
	}
	frames, _, err := feed.Next(0)
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range frames {
		f.Add(fr.Payload)
		record, body, _ := wal.SplitTrailer(fr.Payload)
		f.Add(record) // trailer-less frame
		f.Add(wal.AppendTrailer(append([]byte(nil), record...), body[:len(body)/2]))
	}
	f.Add(wal.AppendTrailer(nil, nil))
	f.Add(wal.AppendTrailer([]byte("{}\n"), []byte{1, 3, 0, 0, 0, 0, 0}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		record, body, ok := wal.SplitTrailer(data)
		if !ok {
			if !bytes.Equal(record, data) || body != nil {
				t.Fatal("a frame without a trailer must be its own payload")
			}
			return
		}
		if got := wal.AppendTrailer(append([]byte(nil), record...), body); !bytes.Equal(got, data) {
			t.Fatal("payload + trailer does not rebuild the frame")
		}
		d, err := core.DecodeCoverDelta(body)
		if err != nil {
			if !errors.Is(err, core.ErrBadCoverDelta) {
				t.Fatalf("undocumented error class: %v", err)
			}
			return
		}
		if enc := d.AppendBinary(nil); !bytes.Equal(enc, body) {
			t.Fatalf("accepted delta re-encodes differently:\n in  %x\n out %x", body, enc)
		}
		for n := 0; n < len(body); n++ {
			if _, err := core.DecodeCoverDelta(body[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(body))
			}
		}
		if _, err := core.DecodeCoverDelta(append(append([]byte(nil), body...), 0)); err == nil {
			t.Fatal("delta with a trailing byte accepted")
		}
	})
}

// seedBatches is a short history that moves both covers: inserts that
// break FDs, an update, and deletes that restore some.
func seedBatches() []stream.Batch {
	ins := func(v ...string) stream.Change { return stream.Change{Kind: stream.Insert, Values: v} }
	return []stream.Batch{
		{Changes: []stream.Change{ins("a", "x", "1"), ins("b", "x", "2")}},
		{Changes: []stream.Change{ins("a", "y", "1"), ins("c", "x", "1")}},
		{Changes: []stream.Change{{Kind: stream.Update, ID: 0, Values: []string{"a", "z", "3"}}}},
		{Changes: []stream.Change{{Kind: stream.Delete, ID: 2}, {Kind: stream.Delete, ID: 4}}},
	}
}

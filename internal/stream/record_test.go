package stream_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynfd/internal/datagen"
	"dynfd/internal/stream"
)

// artistBatches is the artist history at the ledger's artist-ingest size
// (datagen artist x0.2: 10,000 rows x 18 columns) in 100-change batches.
func artistBatches(tb testing.TB, n int) [][]stream.Change {
	tb.Helper()
	p, err := datagen.ByName("artist")
	if err != nil {
		tb.Fatal(err)
	}
	p = p.Scaled(0.2)
	p.Changes = 100 * n
	d, err := datagen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]stream.Change, n)
	for i := range out {
		out[i] = d.Changes[100*i : 100*(i+1)]
	}
	return out
}

func mustRecord(tb testing.TB, changes []stream.Change) []byte {
	tb.Helper()
	rec, err := stream.AppendRecord(nil, changes)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

func TestRecordRoundTrip(t *testing.T) {
	t.Parallel()
	for _, changes := range [][]stream.Change{
		nil,
		{{Kind: stream.Insert, Values: []string{"a", "", "\x00\xfd\xff"}}},
		{
			{Kind: stream.Delete, ID: 0},
			{Kind: stream.Delete, ID: -1 << 63},
			{Kind: stream.Update, ID: 1<<63 - 1, Values: []string{strings.Repeat("v", 300)}},
			{Kind: stream.Insert, Values: []string{"t"}, Time: time.Date(2019, 3, 26, 10, 0, 0, 123, time.UTC)},
			{Kind: stream.Insert, Values: []string{"old"}, Time: time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC)},
		},
	} {
		rec := mustRecord(t, changes)
		got, err := stream.DecodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, changes) {
			t.Fatalf("round trip = %#v, want %#v", got, changes)
		}
		if n, ok := stream.RecordLen(append(rec, "tail"...)); !ok || n != len(rec) {
			t.Fatalf("RecordLen = %d, %v, want %d", n, ok, len(rec))
		}
	}
	// Values of a decoded record are their own strings, not views into
	// the payload.
	rec := mustRecord(t, []stream.Change{{Kind: stream.Insert, Values: []string{"keep"}}})
	got, _ := stream.DecodeRecord(rec)
	for i := range rec {
		rec[i] = 0
	}
	if got[0].Values[0] != "keep" {
		t.Fatalf("decoded value aliases the payload: %q", got[0].Values[0])
	}
}

func TestAppendRecordUnknownKind(t *testing.T) {
	t.Parallel()
	if _, err := stream.AppendRecord(nil, []stream.Change{{Kind: stream.Kind(9)}}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestDecodeRecordLegacyJSON: a payload without the record magic is a
// JSON-lines batch, as logged and shipped before batch records.
func TestDecodeRecordLegacyJSON(t *testing.T) {
	t.Parallel()
	changes := []stream.Change{
		{Kind: stream.Insert, Values: []string{"a", "b"}},
		{Kind: stream.Update, ID: 4, Values: []string{"c", "d"}},
		{Kind: stream.Delete, ID: 2},
	}
	var buf bytes.Buffer
	if err := stream.WriteChanges(&buf, changes); err != nil {
		t.Fatal(err)
	}
	got, err := stream.DecodeRecord(buf.Bytes())
	if err != nil || !reflect.DeepEqual(got, changes) {
		t.Fatalf("DecodeRecord(JSON) = %v, %v", got, err)
	}
}

// TestReadChangesRefusesRecord: the JSON-lines reader — the only decoder
// a node that predates batch records has — refuses a batch record
// outright, even one whose values hold a valid JSON change line, instead
// of applying part of it.
func TestReadChangesRefusesRecord(t *testing.T) {
	t.Parallel()
	line := "\n" + `{"op":"insert","values":["a"]}` + "\n"
	rec := mustRecord(t, []stream.Change{{Kind: stream.Insert, Values: []string{line}}})
	if got, err := stream.ReadChanges(bytes.NewReader(rec)); err == nil || got != nil {
		t.Fatalf("ReadChanges(record) = %v, %v", got, err)
	}
}

// TestDecodeRecordRejects covers the malformed-record classes.
func TestDecodeRecordRejects(t *testing.T) {
	t.Parallel()
	magic := []byte("\xfddynfdb\x00")
	body := func(b ...byte) []byte {
		return append(append(append([]byte(nil), magic...), byte(len(b))), b...)
	}
	zeroTime := append([]byte{1, 0, 0, 1}, binary.AppendVarint(nil, time.Time{}.Unix())...)
	bigNanos := append([]byte{1, 0, 0, 1, 0}, binary.AppendUvarint(nil, 1e9)...)
	cases := map[string][]byte{
		"magic only":          magic,
		"short body":          append(append([]byte(nil), magic...), 9, 1),
		"non-minimal length":  append(append([]byte(nil), magic...), 0x82, 0x00, 1, 0),
		"unknown kind":        body(1, 3, 0, 0),
		"oversized changes":   body(5, 0, 0, 0),
		"oversized values":    body(1, 0, 9, 0),
		"value past the end":  body(1, 0, 1, 5, 'a', 0),
		"time flag 2":         body(1, 0, 0, 2),
		"zero time with flag": body(append(zeroTime, 0)...),
		"nanoseconds >= 1e9":  body(bigNanos...),
		"trailing byte":       body(1, 0, 0, 0, 7),
	}
	if _, err := stream.DecodeRecord(body(1, 0, 0, 0)); err != nil {
		t.Fatalf("minimal record rejected: %v", err)
	}
	for name, payload := range cases {
		if _, err := stream.DecodeRecord(payload); !errors.Is(err, stream.ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}
}

// FuzzBatchRecord fuzzes the batch-record decoder. For ANY payload that
// carries the record magic:
//
//   - DecodeRecord does not panic, and a rejection wraps ErrBadRecord;
//   - an accepted payload re-encodes to exactly its own bytes and
//     RecordLen spans all of it;
//   - every truncation of an accepted payload, and it with any one byte
//     appended, is rejected.
//
// Seeds are records a primary logs for the artist history, cut to the
// first 3 and 10 changes of each batch: the truncation check makes an
// accepted input cost O(size²) to minimize, and a whole 20 KB batch
// stalls the fuzzer for minutes.
func FuzzBatchRecord(f *testing.F) {
	for _, b := range artistBatches(f, 4) {
		f.Add(mustRecord(f, b[:10]))
		f.Add(mustRecord(f, b[:3]))
	}
	f.Add(mustRecord(f, nil))
	f.Add(mustRecord(f, []stream.Change{
		{Kind: stream.Delete, ID: -7},
		{Kind: stream.Update, ID: 253, Values: []string{"", "\xfd"}, Time: time.Unix(1e9, 5)},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if !stream.IsRecord(data) {
			return
		}
		changes, err := stream.DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, stream.ErrBadRecord) {
				t.Fatalf("undocumented error class: %v", err)
			}
			return
		}
		if enc := mustRecord(t, changes); !bytes.Equal(enc, data) {
			t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		if n, ok := stream.RecordLen(data); !ok || n != len(data) {
			t.Fatalf("RecordLen = %d, %v for an accepted %d-byte record", n, ok, len(data))
		}
		for n := 1; n < len(data); n++ {
			if _, err := stream.DecodeRecord(data[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
			}
		}
		longer := append(append([]byte(nil), data...), 0)
		for b := 0; b < 256; b++ {
			longer[len(data)] = byte(b)
			if _, err := stream.DecodeRecord(longer); err == nil {
				t.Fatalf("record with appended byte %#x accepted", b)
			}
		}
	})
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	recordSink  []byte
	changesSink []stream.Change
)

// BenchmarkBatchCodec encodes and decodes one artist-shaped 100-change
// batch (18 columns) as a binary batch record and as JSON lines, the
// record format logged and shipped before.
func BenchmarkBatchCodec(b *testing.B) {
	batch := artistBatches(b, 1)[0]
	rec := mustRecord(b, batch)
	var js bytes.Buffer
	if err := stream.WriteChanges(&js, batch); err != nil {
		b.Fatal(err)
	}
	jsonBytes := js.Bytes()
	b.Run("codec=binary/op=encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rec)))
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = stream.AppendRecord(buf[:0], batch)
		}
		recordSink = buf
	})
	b.Run("codec=binary/op=decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(rec)))
		for i := 0; i < b.N; i++ {
			var err error
			if changesSink, err = stream.DecodeRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=json/op=encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(jsonBytes)))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := stream.WriteChanges(&buf, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=json/op=decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(jsonBytes)))
		for i := 0; i < b.N; i++ {
			var err error
			if changesSink, err = stream.ReadChanges(bytes.NewReader(jsonBytes)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

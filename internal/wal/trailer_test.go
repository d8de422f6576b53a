package wal

import (
	"bytes"
	"strings"
	"testing"

	"dynfd/internal/stream"
)

// TestTrailerSplit: a legacy JSON-lines frame splits back into exactly
// the payload and body it was built from, even when the batch's values
// spell out the trailer magic — the JSON encoding never emits the byte
// 0xfd.
func TestTrailerSplit(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	nasty := []string{trailerMagic, "\xfd", controlMagic}
	if err := stream.WriteChanges(&buf, []stream.Change{
		{Kind: stream.Insert, Values: nasty},
		{Kind: stream.Update, ID: 3, Values: nasty},
	}); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	if bytes.IndexByte(payload, 0xfd) >= 0 {
		t.Fatalf("batch encoding contains 0xfd: %q", payload)
	}
	if p, body, ok := SplitTrailer(payload); ok || !bytes.Equal(p, payload) || body != nil {
		t.Fatal("a bare batch payload split off a trailer")
	}
	for _, body := range [][]byte{nil, {1}, []byte(trailerMagic)} {
		frame := AppendTrailer(append([]byte(nil), payload...), body)
		p, b, ok := SplitTrailer(frame)
		if !ok || !bytes.Equal(p, payload) || !bytes.Equal(b, body) {
			t.Fatalf("body %q: split into %q / %q (ok %v)", body, p, b, ok)
		}
		if IsControl(frame) {
			t.Fatal("a framed batch reads as a control record")
		}
	}
}

// TestTrailerSplitBinaryRecord: a batch record splits by its length
// prefix, even when its varints and values hold the trailer magic — a
// value of 253 bytes has the length varint fd 01, and 0xfd starts the
// magic — and a frame whose record is followed by anything but a trailer
// does not split.
func TestTrailerSplitBinaryRecord(t *testing.T) {
	t.Parallel()
	long := strings.Repeat("x", 253)
	record, err := stream.AppendRecord(nil, []stream.Change{
		{Kind: stream.Insert, Values: []string{trailerMagic + long[len(trailerMagic):], trailerMagic}},
		{Kind: stream.Delete, ID: -127}, // zigzag varint fd 01
		{Kind: stream.Update, ID: 3, Values: []string{long, controlMagic}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(record, []byte(trailerMagic)) || bytes.Count(record, []byte{0xfd}) < 5 {
		t.Fatalf("the record holds too few 0xfd bytes to confuse a search: %x", record)
	}
	if p, body, ok := SplitTrailer(record); ok || !bytes.Equal(p, record) || body != nil {
		t.Fatal("a bare batch record split off a trailer")
	}
	for _, body := range [][]byte{nil, {1}, []byte(trailerMagic)} {
		frame := AppendTrailer(append([]byte(nil), record...), body)
		p, b, ok := SplitTrailer(frame)
		if !ok || !bytes.Equal(p, record) || !bytes.Equal(b, body) {
			t.Fatalf("body %q: split into %d / %q bytes (ok %v)", body, len(p), b, ok)
		}
		if IsControl(frame) {
			t.Fatal("a framed batch reads as a control record")
		}
	}
	for _, frame := range [][]byte{
		append(append([]byte(nil), record...), 'x'),                  // trailing garbage
		append(append([]byte(nil), record[:20]...), trailerMagic...), // truncated record
	} {
		if p, body, ok := SplitTrailer(frame); ok || !bytes.Equal(p, frame) || body != nil {
			t.Fatalf("frame %x split into %x / %x", frame, p, body)
		}
	}
}

package wal

import (
	"bytes"
	"testing"

	"dynfd/internal/stream"
)

// TestTrailerSplit: a frame splits back into exactly the payload and body
// it was built from, even when the batch's values spell out the trailer
// magic — the stream codec's JSON never emits the byte 0xfd.
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

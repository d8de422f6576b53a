package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"dynfd/internal/stream"
)

func TestPromotionRoundtrip(t *testing.T) {
	for _, epoch := range []uint64{1, 2, 7, 1 << 20, ^uint64(0)} {
		payload := EncodePromotion(epoch)
		if !IsControl(payload) {
			t.Fatalf("EncodePromotion(%d) is not a control payload", epoch)
		}
		got, err := DecodePromotion(payload)
		if err != nil {
			t.Fatalf("DecodePromotion(EncodePromotion(%d)): %v", epoch, err)
		}
		if got != epoch {
			t.Fatalf("roundtrip: got epoch %d, want %d", got, epoch)
		}
	}
}

func TestPromotionErrorClasses(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrNotControl},
		{"batch-json", []byte(`{"op":"insert"}` + "\n"), ErrNotControl},
		{"comment", []byte("# hi\n"), ErrNotControl},
		{"magic-only", []byte(controlMagic), ErrBadControl},
		{"truncated", EncodePromotion(3)[:promoteLen-1], ErrBadControl},
		{"oversized", append(EncodePromotion(3), 0), ErrBadControl},
		{"unknown-kind", func() []byte {
			p := EncodePromotion(3)
			p[len(controlMagic)] = 99
			return p
		}(), ErrBadControl},
		{"epoch-zero", func() []byte {
			p := EncodePromotion(1)
			for i := len(controlMagic) + 1; i < len(p); i++ {
				p[i] = 0
			}
			return p
		}(), ErrBadControl},
	}
	for _, tc := range cases {
		if _, err := DecodePromotion(tc.payload); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestPromotionNeverParsesAsBatch pins the wire-compat invariant the
// control magic relies on: a promotion payload is not a batch record and
// does not start with any byte the legacy JSON-lines codec accepts as the
// start of a batch line.
func TestPromotionNeverParsesAsBatch(t *testing.T) {
	p := EncodePromotion(42)
	if stream.IsRecord(p) {
		t.Fatal("promotion payload carries the batch record magic")
	}
	switch p[0] {
	case '{', '#', ' ', '\t', '\n', '\r':
		t.Fatalf("promotion payload starts with %q, which the batch codec accepts", p[0])
	}
}

// FuzzPromoteHandshake fuzzes the epoch-bearing promotion message end to
// end: the decoder never panics and classifies errors stably
// (ErrNotControl vs ErrBadControl), encode/decode roundtrips, and framing
// promotion records into a WAL stream preserves TailReader ≡ Scan on
// every input — including a junk suffix playing the torn tail.
func FuzzPromoteHandshake(f *testing.F) {
	f.Add(uint64(1), uint64(1), []byte{})
	f.Add(uint64(7), uint64(3), []byte(controlMagic))
	f.Add(uint64(1<<40), uint64(9), []byte(`{"op":"insert","values":["a"]}`+"\n"))
	f.Add(^uint64(0), ^uint64(0), EncodePromotion(5))
	f.Fuzz(func(t *testing.T, epoch, seq uint64, junk []byte) {
		// Decoder robustness and class stability on arbitrary payloads.
		if _, err := DecodePromotion(junk); err != nil {
			if IsControl(junk) && !errors.Is(err, ErrBadControl) {
				t.Fatalf("control-magic payload failed with %v, want ErrBadControl", err)
			}
			if !IsControl(junk) && !errors.Is(err, ErrNotControl) {
				t.Fatalf("non-control payload failed with %v, want ErrNotControl", err)
			}
		} else if !IsControl(junk) {
			t.Fatal("DecodePromotion succeeded on a payload IsControl rejects")
		}

		// Roundtrip for every nonzero epoch.
		if epoch != 0 {
			got, err := DecodePromotion(EncodePromotion(epoch))
			if err != nil || got != epoch {
				t.Fatalf("roundtrip epoch %d: got %d, %v", epoch, got, err)
			}
		}

		// Frame a promotion between two junk-payload records, append the raw
		// junk as a potential torn tail, and require the streaming decoder to
		// agree with Scan record for record.
		prom := EncodePromotion(epoch | 1)
		var stream []byte
		stream = AppendRecord(stream, seq, junk)
		stream = AppendRecord(stream, seq+1, prom)
		stream = AppendRecord(stream, seq+2, junk)
		stream = append(stream, junk...)

		want, _ := Scan(stream)
		rd := NewTailReader(bytes.NewReader(stream))
		for i := 0; ; i++ {
			rec, err := rd.Next()
			if err != nil {
				if i != len(want) {
					t.Fatalf("TailReader stopped after %d records, Scan found %d", i, len(want))
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			if i >= len(want) {
				t.Fatalf("TailReader yielded %d records, Scan found only %d", i+1, len(want))
			}
			if rec.Seq != want[i].Seq || !bytes.Equal(rec.Payload, want[i].Payload) {
				t.Fatalf("record %d mismatch", i)
			}
			// A control payload that survived framing decodes to the epoch
			// that went in.
			if IsControl(rec.Payload) && bytes.Equal(rec.Payload, prom) {
				if got, err := DecodePromotion(rec.Payload); err != nil || got != epoch|1 {
					t.Fatalf("framed promotion decode: got %d, %v", got, err)
				}
			}
		}
	})
}

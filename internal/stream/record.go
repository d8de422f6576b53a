package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"dynfd/internal/canon"
)

// A batch record is the binary encoding of one change batch that the
// durability layer logs and the replication feed ships (DESIGN.md §11):
//
//	magic "\xfddynfdb\x00"
//	uvarint body length
//	body:
//	  uvarint change count
//	  per change:
//	    kind byte (0 insert, 1 delete, 2 update)
//	    varint id                    (delete and update only)
//	    uvarint value count, then per value: uvarint length, bytes
//	    time flag byte: 0 = zero time, 1 = varint Unix seconds + uvarint ns
//
// The magic is a sibling of the WAL's control and frame-trailer magics.
// Its 0xfd lead byte can start no JSON line, so a decoder that only knows
// JSON-lines batches refuses a record instead of applying part of it,
// and DecodeRecord tells the two encodings apart by the magic alone.
//
// The encoding is canonical: varints are minimal, a change without values
// encodes a zero count (and decodes with nil Values), and a time is UTC
// at nanosecond precision. DecodeRecord accepts exactly what AppendRecord
// writes.
const recordMagic = "\xfddynfdb\x00"

// minChangeBytes is the smallest encoded change: kind, value count and
// time flag. It bounds the change count by the body size before anything
// is allocated.
const minChangeBytes = 3

// ErrBadRecord classifies every DecodeRecord failure on a payload that
// carries the batch record magic.
var ErrBadRecord = errors.New("stream: malformed batch record")

// errBodyLength is the failure of a truncated record, or one followed by
// more bytes — prebuilt, because it is the common one.
var errBodyLength = fmt.Errorf("%w: body length does not match the payload", ErrBadRecord)

// IsRecord reports whether b starts with the batch record magic.
func IsRecord(b []byte) bool { return bytes.HasPrefix(b, []byte(recordMagic)) }

// RecordLen returns the byte length of the batch record at the front of
// b — magic, length prefix and body — so a record can be split from
// whatever follows it without looking inside the body, whose varints and
// values may hold any byte. ok is false when b does not start with the
// magic and a canonical length prefix, or holds fewer bytes than the
// prefix announces.
func RecordLen(b []byte) (n int, ok bool) {
	if !IsRecord(b) {
		return 0, false
	}
	rest := b[len(recordMagic):]
	body, k := binary.Uvarint(rest)
	if k <= 0 || (k > 1 && rest[k-1] == 0) || body > uint64(len(rest)-k) {
		return 0, false
	}
	return len(recordMagic) + k + int(body), true
}

// AppendRecord appends the batch record of changes to dst. It fails only
// on a change of unknown kind.
func AppendRecord(dst []byte, changes []Change) ([]byte, error) {
	size := uvarintLen(uint64(len(changes)))
	for i, c := range changes {
		if c.Kind != Insert && c.Kind != Delete && c.Kind != Update {
			return dst, fmt.Errorf("stream: change %d: unknown kind %d", i, int(c.Kind))
		}
		size += 1 + uvarintLen(uint64(len(c.Values))) + 1
		if c.Kind != Insert {
			size += uvarintLen(zigzag(c.ID))
		}
		for _, v := range c.Values {
			size += uvarintLen(uint64(len(v))) + len(v)
		}
		if !c.Time.IsZero() {
			size += uvarintLen(zigzag(c.Time.Unix())) + uvarintLen(uint64(c.Time.Nanosecond()))
		}
	}
	dst = slices.Grow(dst, len(recordMagic)+binary.MaxVarintLen64+size)
	dst = append(dst, recordMagic...)
	dst = binary.AppendUvarint(dst, uint64(size))
	dst = binary.AppendUvarint(dst, uint64(len(changes)))
	for _, c := range changes {
		dst = append(dst, byte(c.Kind))
		if c.Kind != Insert {
			dst = binary.AppendVarint(dst, c.ID)
		}
		dst = binary.AppendUvarint(dst, uint64(len(c.Values)))
		for _, v := range c.Values {
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
		if c.Time.IsZero() {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, c.Time.Unix())
		dst = binary.AppendUvarint(dst, uint64(c.Time.Nanosecond()))
	}
	return dst, nil
}

// DecodeRecord decodes one logged or shipped change batch. A payload with
// the batch record magic is decoded strictly: anything that is not
// exactly an AppendRecord encoding — truncated, followed by extra bytes,
// with oversized counts or non-minimal varints — fails with an error
// wrapping ErrBadRecord. Any other payload is a JSON-lines batch, as
// logged and shipped before batch records existed, and goes to
// ReadChanges. Values never alias payload: each is its own string, so a
// long-lived value does not pin the frame it arrived in.
func DecodeRecord(payload []byte) ([]Change, error) {
	if !IsRecord(payload) {
		return ReadChanges(bytes.NewReader(payload))
	}
	r := recordReader{canon.NewReader(payload[len(recordMagic):], ErrBadRecord)}
	if n := r.Uvarint(math.MaxInt32, "body length"); r.Err == nil && n != uint64(len(r.B)) {
		r.Err = errBodyLength
	}
	n := r.Uvarint(uint64(len(r.B)/minChangeBytes), "change count")
	var out []Change
	if r.Err == nil && n > 0 {
		out = make([]Change, n)
	}
	var vals []string // the arena the changes' Values are cut from
	for i := range out {
		c := &out[i]
		c.Kind = Kind(r.Byte("kind"))
		if r.Err == nil && c.Kind != Insert && c.Kind != Delete && c.Kind != Update {
			r.Fail("change %d: unknown kind %d", i, int(c.Kind))
		}
		if c.Kind != Insert {
			c.ID = unzigzag(r.Uvarint(math.MaxUint64, "id"))
		}
		if nv := r.Uvarint(uint64(len(r.B)), "value count"); nv > 0 {
			if uint64(cap(vals)-len(vals)) < nv {
				// Size the arena as if every change left had nv values;
				// each takes at least a byte.
				vals = make([]string, 0, min(nv*uint64(len(out)-i), uint64(len(r.B))))
			}
			start := len(vals)
			for ; nv > 0; nv-- {
				vals = append(vals, r.value())
			}
			c.Values = vals[start:len(vals):len(vals)]
		}
		switch flag := r.Byte("time flag"); {
		case r.Err != nil:
		case flag == 1:
			sec := unzigzag(r.Uvarint(math.MaxUint64, "time seconds"))
			ns := r.Uvarint(999_999_999, "time nanoseconds")
			c.Time = time.Unix(sec, int64(ns)).UTC()
			if r.Err == nil && c.Time.IsZero() {
				r.Fail("change %d: zero time with time flag set", i)
			}
		case flag != 0:
			r.Fail("change %d: time flag %d", i, flag)
		}
		if r.Err != nil {
			return nil, r.Err
		}
	}
	if r.Err == nil && len(r.B) > 0 {
		r.Fail("%d trailing bytes", len(r.B))
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return out, nil
}

// recordReader consumes a record body.
type recordReader struct{ canon.Reader }

// value reads one length-prefixed value into a string of its own; the
// common one-byte length is read inline.
func (r *recordReader) value() string {
	if r.Err == nil && len(r.B) > 0 && r.B[0] < 0x80 && int(r.B[0]) < len(r.B) {
		n := 1 + int(r.B[0])
		v := string(r.B[1:n])
		r.B = r.B[n:]
		return v
	}
	return string(r.Bytes(r.Uvarint(math.MaxInt32, "value length"), "value"))
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

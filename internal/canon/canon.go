// Package canon reads canonical binary encodings front to back: minimal
// varints, single bytes and byte runs, each checked against the bytes
// left, with a sticky first error. It serves decoders that accept
// exactly what their encoder writes — the cover delta (core) and the
// batch record (stream).
package canon

import (
	"encoding/binary"
	"fmt"
)

// Reader consumes B. The first failure is kept in Err, wrapping the
// decoder's error class, and turns every later read into a no-op that
// returns zero.
type Reader struct {
	B     []byte // the bytes not read yet
	Err   error
	class error
}

// NewReader returns a reader over b whose failures wrap class.
func NewReader(b []byte, class error) Reader { return Reader{B: b, class: class} }

// Fail records a failure unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%w: %s", r.class, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads one minimal varint no larger than max.
func (r *Reader) Uvarint(max uint64, what string) uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B)
	switch {
	case n == 0:
		r.Fail("truncated %s", what)
		return 0
	case n < 0:
		r.Fail("%s overflows", what)
		return 0
	case n > 1 && r.B[n-1] == 0:
		r.Fail("non-minimal %s", what)
		return 0
	case v > max:
		r.Fail("%s %d exceeds %d", what, v, max)
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if r.Err != nil {
		return 0
	}
	if len(r.B) == 0 {
		r.Fail("truncated %s", what)
		return 0
	}
	c := r.B[0]
	r.B = r.B[1:]
	return c
}

// Bytes reads the next n bytes; the result aliases the input.
func (r *Reader) Bytes(n uint64, what string) []byte {
	if r.Err != nil {
		return nil
	}
	if n > uint64(len(r.B)) {
		r.Fail("truncated %s", what)
		return nil
	}
	b := r.B[:n]
	r.B = r.B[n:]
	return b
}

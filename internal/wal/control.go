package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Control records are WAL records whose payload is not a change batch but
// a replication-control message, currently only the promotion record of
// the failover protocol (DESIGN.md §16): when a follower is promoted to
// primary it durably logs a promotion carrying its new fencing epoch, so
// the epoch survives crash/replay and ships to downstream followers
// in-band through the ordinary frame stream.
//
// Batch payloads start with the batch-record magic "\xfddynfdb\x00"
// (stream.AppendRecord), or, when logged before batch records existed,
// are JSON lines that start with '{', '#', or whitespace. The control
// magic below differs from both, so it never collides with a batch
// encoding, and an old decoder that does not know about control records
// fails loudly instead of applying one as data.
//
// Promotion payload layout (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "\xfddynfdc"
//	8       1     kind (1 = promotion)
//	9       8     fencing epoch
const (
	controlMagic = "\xfddynfdc\x00"
	kindPromote  = 1
	promoteLen   = len(controlMagic) + 1 + 8
)

// Control-payload error classes. DecodePromotion returns errors wrapping
// exactly one of these, so fuzzing can pin the classification: ErrNotControl
// for payloads without the control magic (ordinary batches), ErrBadControl
// for magic-prefixed payloads that are truncated, oversized, of unknown
// kind, or carry an invalid epoch.
var (
	ErrNotControl = errors.New("wal: not a control payload")
	ErrBadControl = errors.New("wal: malformed control payload")
)

// IsControl reports whether a WAL record payload is a replication-control
// message rather than a change batch.
func IsControl(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte(controlMagic))
}

// EncodePromotion builds the payload of a promotion record for the given
// fencing epoch. Epoch 0 is the pre-promotion state and never encoded.
func EncodePromotion(epoch uint64) []byte {
	buf := make([]byte, promoteLen)
	copy(buf, controlMagic)
	buf[len(controlMagic)] = kindPromote
	binary.BigEndian.PutUint64(buf[len(controlMagic)+1:], epoch)
	return buf
}

// DecodePromotion parses a promotion payload and returns its fencing
// epoch. It never panics on arbitrary input: payloads without the control
// magic fail with ErrNotControl, magic-prefixed payloads that are not a
// well-formed promotion fail with ErrBadControl.
func DecodePromotion(payload []byte) (uint64, error) {
	if !IsControl(payload) {
		return 0, ErrNotControl
	}
	if len(payload) != promoteLen {
		return 0, fmt.Errorf("%w: %d bytes, want %d", ErrBadControl, len(payload), promoteLen)
	}
	if kind := payload[len(controlMagic)]; kind != kindPromote {
		return 0, fmt.Errorf("%w: unknown control kind %d", ErrBadControl, kind)
	}
	epoch := binary.BigEndian.Uint64(payload[len(controlMagic)+1:])
	if epoch == 0 {
		return 0, fmt.Errorf("%w: promotion to epoch 0", ErrBadControl)
	}
	return epoch, nil
}

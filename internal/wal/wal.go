// Package wal implements the write-ahead log of DynFD's durability layer
// (DESIGN.md §11): an append-only file of length-prefixed, sequence-
// numbered, CRC32-checksummed records, each carrying one applied change
// batch as a binary batch record (stream.AppendRecord) or a replication-
// control message (control.go).
//
// Record layout (all integers big-endian):
//
//	offset  size  field
//	0       4     payload length n
//	4       8     sequence number
//	12      4     CRC32 (IEEE) over bytes [4, 16+n) — seq + payload
//	16      n     payload
//
// The CRC covers the sequence number, so a zero-filled region (a sparse
// tail left by a crashed preallocation) never parses as a valid record,
// and a record copied to the wrong position fails its checksum.
//
// Torn-tail rule: Scan reads records front to back and stops at the first
// one that is incomplete or fails its checksum. Everything before that
// point is the valid prefix; everything after it is a torn tail that a
// crash left behind and that recovery truncates. This is sound because the
// log is append-only and synced record by record: corruption from a crash
// can only live at the tail, past the last acknowledged record.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// headerSize is the fixed per-record framing overhead.
const headerSize = 16

// MaxPayload bounds a record's payload so a corrupt length prefix cannot
// make Scan attempt a multi-gigabyte allocation.
const MaxPayload = 1 << 28

// File is the durable-file surface the log needs for appending. *os.File
// implements it; internal/faultio provides crash-scripted implementations.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
}

// Record is one decoded log record: the batch sequence number and the raw
// payload (a batch record or control message in the durability layer).
type Record struct {
	Seq     uint64
	Payload []byte
	// End is the byte offset just past this record in the scanned data.
	End int64
}

// AppendRecord appends the framing of one record to dst and returns the
// extended slice. It never fails; use it to build batches of records or
// fuzz inputs.
func AppendRecord(dst []byte, seq uint64, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], seq)
	crc := crc32.ChecksumIEEE(hdr[4:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.BigEndian.PutUint32(hdr[12:16], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Scan decodes the raw log contents front to back, applying the torn-tail
// rule: it returns every record up to the first incomplete or corrupt one,
// together with the byte length of that valid prefix. data[validLen:] is
// the torn tail (empty for a clean log). Scan never fails — a log that
// starts with garbage simply has zero valid records. Payloads alias data.
func Scan(data []byte) (recs []Record, validLen int64) {
	off := int64(0)
	for int64(len(data))-off >= headerSize {
		hdr := data[off : off+headerSize]
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n > MaxPayload || off+headerSize+n > int64(len(data)) {
			break // absurd length or payload runs past the end: torn tail
		}
		payload := data[off+headerSize : off+headerSize+n]
		crc := crc32.ChecksumIEEE(hdr[4:12])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != binary.BigEndian.Uint32(hdr[12:16]) {
			break // checksum mismatch: torn or corrupt record
		}
		off += headerSize + n
		recs = append(recs, Record{
			Seq:     binary.BigEndian.Uint64(hdr[4:12]),
			Payload: payload,
			End:     off,
		})
	}
	return recs, off
}

// Log appends records to an open write-ahead log file. It buffers nothing
// across calls: Append hands the file exactly one Write per record (so a
// torn write tears at most one record), and Sync makes everything written
// so far durable. Append, Reset, and Truncate calls must be externally
// serialized; Sync only touches the file and may run concurrently with
// Append when the file supports it (*os.File does) — the group committer
// relies on that overlap, and brackets Reset/Truncate with its Exclusive
// barrier so a truncation never races a sync.
type Log struct {
	f   File
	buf []byte
}

// NewLog wraps an open log file positioned at its end (the append
// position). The caller is responsible for having truncated any torn tail
// first — typically via Scan's validLen during recovery.
func NewLog(f File) *Log { return &Log{f: f} }

// Append writes one record. The record is in the OS buffer afterwards but
// not yet durable; call Sync before acknowledging the batch to the client.
func (l *Log) Append(seq uint64, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: record %d payload %d bytes exceeds limit %d", seq, len(payload), MaxPayload)
	}
	l.buf = AppendRecord(l.buf[:0], seq, payload)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: appending record %d: %w", seq, err)
	}
	return nil
}

// Sync makes all appended records durable (fsync on commit).
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Reset empties the log after a checkpoint made its records redundant,
// and syncs the truncation.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	return l.Sync()
}

// Truncate chops the log to size bytes — the torn-tail truncation of
// recovery — and syncs.
func (l *Log) Truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating to %d: %w", size, err)
	}
	return l.Sync()
}

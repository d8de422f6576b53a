package wal

import (
	"bytes"

	"dynfd/internal/stream"
)

// A replication frame (DESIGN.md §15) is a WAL record payload as logged,
// optionally followed by a trailer that only the frame stream carries —
// today the batch's cover delta (core.CoverDelta). The WAL itself never
// holds a trailer: the primary logs the bare batch and appends the
// trailer to the copy it hands its feed, and a follower strips it before
// logging, so WAL records stay byte-identical on every node.
//
// The trailer starts with its own magic, a sibling of the control-record
// and batch-record magics. A batch record (stream.AppendRecord) carries
// its own length prefix, and the trailer starts right after the record it
// announces — the record's varints and values may hold any byte, the
// magic included, so the split never searches them. A JSON-lines batch,
// logged by a node that predates batch records, is valid UTF-8 and never
// contains the byte 0xfd, so there the first occurrence of the magic is
// where the trailer starts. A decoder that predates trailers reads the
// magic as a malformed JSON line and fails the frame instead of applying
// part of it.
//
// Frame layout:
//
//	payload (the WAL record payload: a batch record, or a legacy JSON-lines batch)
//	magic "\xfddynfdt\x00"
//	trailer body
const trailerMagic = "\xfddynfdt\x00"

// AppendTrailer appends the trailer magic and body to dst, which must
// already hold the frame's batch payload; with a nil body the caller
// appends the body itself.
func AppendTrailer(dst, body []byte) []byte {
	dst = append(dst, trailerMagic...)
	return append(dst, body...)
}

// SplitTrailer splits a replication frame into the batch payload to log
// and the trailer body. ok is false for a frame without a trailer, whose
// payload is then the whole frame; that includes a batch record followed
// by anything but the trailer magic, which then fails to decode. The
// results alias frame.
func SplitTrailer(frame []byte) (payload, body []byte, ok bool) {
	if stream.IsRecord(frame) {
		n, complete := stream.RecordLen(frame)
		if !complete || !bytes.HasPrefix(frame[n:], []byte(trailerMagic)) {
			return frame, nil, false
		}
		return frame[:n], frame[n+len(trailerMagic):], true
	}
	i := bytes.Index(frame, []byte(trailerMagic))
	if i < 0 {
		return frame, nil, false
	}
	return frame[:i], frame[i+len(trailerMagic):], true
}

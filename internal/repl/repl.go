// Package repl implements WAL-shipping replication for DynFD engines
// (DESIGN.md §15): a primary streams its write-ahead log tail —
// length-prefixed, CRC32-checksummed frames identical to the on-disk WAL
// format — over HTTP to any number of followers, each replaying the frames
// into its own durable engine and serving every read endpoint lock-free
// from its replayed snapshots under a bounded-staleness contract.
//
// The moving parts:
//
//   - Feed: a per-engine in-memory ring of committed frames. The durable
//     engine appends each staged batch's payload and marks it released once
//     it is crash-durable on the primary; only durable frames are ever
//     shipped, so a follower can never get ahead of what a crashed-and-
//     recovered primary still has.
//   - Server: the primary-side HTTP handler. It serves the tenant listing,
//     the latest checkpoint (atomic, tagged with the WAL sequence it
//     covers), and the frame stream itself, resumable from any sequence
//     the feed still retains. A request below the feed's floor answers
//     410 Gone: the follower must catch up from a checkpoint first.
//   - Client: the follower-side protocol functions (listing, checkpoint
//     fetch, tail streams).
//   - Follower: the catch-up state machine. It tails from its replica's
//     current sequence, installs a primary checkpoint whenever the feed
//     has moved past it, applies frames in order, and reconnects with
//     exponential backoff when the stream tears. Heartbeat frames carry
//     the primary's durable sequence so the follower's reported lag stays
//     meaningful while no batches flow.
//
// Frame semantics on the wire mirror the WAL's torn-tail rule: a receiver
// applies complete, checksum-valid frames front to back and treats the
// first incomplete or corrupt frame as the end of the stream — nothing
// after it is trusted, and the connection is re-established from the last
// applied sequence. A frame with an empty payload is a heartbeat: its
// sequence number is the primary's current durable sequence and it is
// never applied.
package repl

import (
	"errors"
	"fmt"
)

// ErrSnapshotNeeded reports that the primary can no longer serve frames
// from the requested sequence — the feed's ring has moved past it — and
// the follower must fetch the latest checkpoint before tailing again.
var ErrSnapshotNeeded = errors.New("repl: requested sequence no longer retained; catch up from a checkpoint")

// ErrClosed reports an operation on a closed feed or follower.
var ErrClosed = errors.New("repl: closed")

// FencedError reports that a node refused a replication request because a
// higher fencing epoch has won (DESIGN.md §16): the refusing node is
// stale, and the caller should follow the winning primary instead. On the
// wire it travels as a 403 with a JSON body carrying the epoch and — when
// the refusing node knows it — the winner's replication base URL.
type FencedError struct {
	// Epoch is the winning fencing epoch the refusing node has observed.
	Epoch uint64
	// Primary is the winning primary's replication base URL, when known;
	// a follower receiving it re-points its client there automatically.
	Primary string
}

func (e *FencedError) Error() string {
	if e.Primary != "" {
		return fmt.Sprintf("repl: fenced by epoch %d (primary %s)", e.Epoch, e.Primary)
	}
	return fmt.Sprintf("repl: fenced by epoch %d", e.Epoch)
}

// Frame is one replicated change batch: the WAL sequence number and the
// record payload exactly as logged on the primary — a batch record
// (stream.AppendRecord) or a promotion record — followed by the batch's
// cover delta as a trailer (wal.SplitTrailer) when the primary sent one. A heartbeat frame has an empty payload and carries the
// primary's durable sequence.
type Frame struct {
	Seq     uint64
	Payload []byte
}

// Heartbeat reports whether the frame is a heartbeat rather than a batch.
func (f Frame) Heartbeat() bool { return len(f.Payload) == 0 }

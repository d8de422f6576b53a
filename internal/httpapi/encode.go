package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dynfd"
	"dynfd/internal/runtime"
)

// This file is the response writer of the hot endpoints: the four
// snapshot reads and the batch ack. Each appends its JSON body into one
// pooled buffer, byte for byte what encoding/json (with SetEscapeHTML
// false) writes for the map or struct the endpoint used to encode, and
// sends it in one Write. Cold endpoints and error bodies use writeJSON.

// bodyPool holds the buffers response bodies are appended into. A buffer
// that grew past maxPooledBody (a long violation listing, say) is dropped
// rather than kept.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// writeAppended answers status with the JSON body that body appends, plus
// the newline json.Encoder ends a value with.
func writeAppended(w http.ResponseWriter, status int, body func(dst []byte) []byte) {
	bp := bodyPool.Get().(*[]byte)
	b := append(body((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b) // a failed write means the client is gone; nothing to do
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// envelope is the staleness and role report every read response carries
// (see readSnapshot). appendEnvelope merges its members with an
// endpoint's own.
type envelope struct {
	seq, staleness uint64
	role           string
	epoch          uint64
	hasEpoch       bool // the tenant's epoch was readable
	// follower marks a runtime replicating from a primary: only then do
	// primary_seq, lag and connected appear, and last_frame_at once a
	// frame arrived.
	follower    bool
	primarySeq  uint64
	lag         uint64
	connected   bool
	lastFrameAt time.Time
}

// setFollower adds the follower members from the tenant's replication
// status: lag is how many primary batches the snapshot at e.seq misses.
func (e *envelope) setFollower(rs runtime.ReplStatus) {
	e.follower = true
	e.primarySeq, e.connected, e.lastFrameAt = rs.PrimarySeq, rs.Connected, rs.LastFrameAt
	if rs.PrimarySeq > e.seq {
		e.lag = rs.PrimarySeq - e.seq
	}
}

// envelopeKeys are the envelope's member names in sorted order, the order
// encoding/json gives a map's keys.
var envelopeKeys = [...]string{"connected", "epoch", "lag", "last_frame_at", "primary_seq", "role", "seq", "staleness"}

// member is one endpoint-specific member of a read response: its key and
// a function that appends its JSON value.
type member struct {
	key   string
	value func(dst []byte) []byte
}

// appendEnvelope appends the JSON object holding e's members and body's,
// all in sorted key order, as encoding/json writes a map[string]any that
// holds them. body must be sorted by key.
func appendEnvelope(dst []byte, e *envelope, body ...member) []byte {
	dst = append(dst, '{')
	n := 0
	for i, key := range envelopeKeys {
		if !e.has(i) {
			continue
		}
		for ; len(body) > 0 && body[0].key < key; body = body[1:] {
			dst = appendKey(dst, &n, body[0].key)
			dst = body[0].value(dst)
		}
		dst = appendKey(dst, &n, key)
		dst = e.appendValue(dst, i)
	}
	for _, m := range body {
		dst = appendKey(dst, &n, m.key)
		dst = m.value(dst)
	}
	return append(dst, '}')
}

// has reports whether e holds the member envelopeKeys[i].
func (e *envelope) has(i int) bool {
	switch envelopeKeys[i] {
	case "epoch":
		return e.hasEpoch
	case "last_frame_at":
		return e.follower && !e.lastFrameAt.IsZero()
	case "connected", "lag", "primary_seq":
		return e.follower
	}
	return true
}

// appendValue appends the JSON value of e's member envelopeKeys[i].
func (e *envelope) appendValue(dst []byte, i int) []byte {
	switch envelopeKeys[i] {
	case "connected":
		return strconv.AppendBool(dst, e.connected)
	case "epoch":
		return strconv.AppendUint(dst, e.epoch, 10)
	case "lag":
		return strconv.AppendUint(dst, e.lag, 10)
	case "last_frame_at":
		dst = append(dst, '"')
		start := len(dst)
		return closeString(e.lastFrameAt.UTC().AppendFormat(dst, time.RFC3339Nano), start)
	case "primary_seq":
		return strconv.AppendUint(dst, e.primarySeq, 10)
	case "role":
		return appendString(dst, e.role)
	case "seq":
		return strconv.AppendUint(dst, e.seq, 10)
	default: // "staleness"
		return strconv.AppendUint(dst, e.staleness, 10)
	}
}

// appendKey appends the n-th member's key (plain ASCII) of an object
// whose '{' dst ends with or follows, and counts the member.
func appendKey(dst []byte, n *int, key string) []byte {
	if *n > 0 {
		dst = append(dst, ',')
	}
	*n++
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// appendString appends s as a JSON string.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := len(dst)
	return closeString(append(dst, s...), start)
}

// closeString finishes the JSON string whose opening quote dst[start-1]
// is followed by its raw content dst[start:]. Content of plain printable
// ASCII other than '"' and '\\' is already its own encoding and only gets
// the closing quote. Anything else — control bytes, non-ASCII, invalid
// UTF-8 — is re-encoded by encoding/json with SetEscapeHTML(false), so
// every string comes out exactly as that encoder writes it.
func closeString(dst []byte, start int) []byte {
	for _, c := range dst[start:] {
		if c < ' ' || c == '"' || c == '\\' || c >= 0x80 {
			raw := string(dst[start:])
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			enc.Encode(raw) // a string always encodes
			return append(dst[:start-1], bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
		}
	}
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64. Zero and
// magnitudes in [1e-6, 1e21) — every g3 error — are the shortest 'f'
// form, as there; anything else goes to json.Marshal. A NaN or infinity
// has no JSON encoding and panics, which the router answers with a 500.
func appendFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); f == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	b, err := json.Marshal(f)
	if err != nil {
		panic(err)
	}
	return append(dst, b...)
}

// appendStrings appends ss as a JSON array of strings (null when nil).
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendInts appends ids as a JSON array of numbers (null when nil).
func appendInts(dst []byte, ids []int64) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, id, 10)
	}
	return append(dst, ']')
}

// appendFDs appends the snapshot's minimal FDs as the "fds" array: one
// {"lhs","rhs","rendered"} object per FD, with no allocation per FD.
func appendFDs(dst []byte, snap *dynfd.ResultSnapshot) []byte {
	cols := snap.Columns()
	dst = append(dst, '[')
	n := 0
	snap.ForEachFD(func(f dynfd.FD) {
		if n > 0 {
			dst = append(dst, ',')
		}
		n++
		dst = append(dst, `{"lhs":[`...)
		for i, a := range f.Lhs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, cols[a])
		}
		dst = append(dst, `],"rhs":`...)
		dst = appendString(dst, cols[f.Rhs])
		dst = append(dst, `,"rendered":"`...)
		start := len(dst)
		dst = closeString(snap.AppendFD(dst, f), start)
		dst = append(dst, '}')
	})
	return append(dst, ']')
}

// appendINDs appends unary INDs as the "inds" array of {"lhs","rhs"}
// column-name objects.
func appendINDs(dst []byte, cols []string, inds []dynfd.IND) []byte {
	dst = append(dst, '[')
	for i, d := range inds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"lhs":`...)
		dst = appendString(dst, cols[d.Lhs])
		dst = append(dst, `,"rhs":`...)
		dst = appendString(dst, cols[d.Rhs])
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendGroups appends violation groups as the "groups" array of
// {"ids","rhs_values"} objects.
func appendGroups(dst []byte, groups []dynfd.ViolationGroup) []byte {
	dst = append(dst, '[')
	for i, g := range groups {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"ids":`...)
		dst = appendInts(dst, g.IDs)
		dst = append(dst, `,"rhs_values":`...)
		dst = strconv.AppendInt(dst, int64(g.RhsValues), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// writeBatchAck answers 200 with the acknowledgement of one durably
// applied batch.
func writeBatchAck(w http.ResponseWriter, res runtime.ApplyResult) {
	writeAppended(w, http.StatusOK, func(dst []byte) []byte { return appendBatchAck(dst, res) })
}

// appendBatchAck appends the acknowledgement of one durably applied
// batch: {"seq"} plus "inserted_ids", "added" and "removed" when not
// empty.
func appendBatchAck(dst []byte, res runtime.ApplyResult) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, res.Seq, 10)
	if len(res.InsertedIDs) > 0 {
		dst = append(dst, `,"inserted_ids":`...)
		dst = appendInts(dst, res.InsertedIDs)
	}
	if len(res.Added) > 0 {
		dst = append(dst, `,"added":`...)
		dst = appendStrings(dst, res.Added)
	}
	if len(res.Removed) > 0 {
		dst = append(dst, `,"removed":`...)
		dst = appendStrings(dst, res.Removed)
	}
	return append(dst, '}')
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"dynfd/internal/attrset"
	"dynfd/internal/canon"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/stream"
)

// A cover delta is one batch's net effect on both covers (DESIGN.md §15):
// the final state of every cover slot the batch's lattice sweeps left
// different from where they found it. A replication primary ships it next
// to the batch, and a follower whose covers equal the primary's before the
// batch reaches the primary's covers after it by maintaining its Pli store
// (Figure 1 step 1) and patching the listed slots — no delete or insert
// sweep (ApplyPatched).
//
// The delta is built from the covers' mutation journals
// (lattice.Cover.StartJournal), so its cost follows the number of slots
// the batch touched, not the cover sizes.
type CoverDelta struct {
	NumAttrs   int   // schema width
	NextID     int64 // the store's next surrogate id after the batch
	FDCount    int   // positive cover size after the batch
	NonFDCount int   // negative cover size after the batch
	// FDs and NonFDs hold one entry per changed slot, strictly ascending
	// in fd.Less order. A positive-cover entry is an addition or a
	// removal; a negative-cover entry is an addition (with its witness, if
	// any), a removal, or a witness change of a member that stays.
	FDs, NonFDs []lattice.Change
}

// ErrBadCoverDelta classifies every DecodeCoverDelta failure.
var ErrBadCoverDelta = errors.New("core: malformed cover delta")

// ErrDeltaMismatch reports that a cover delta does not fit the engine:
// its schema, the record ids the batch assigns, or the before-state of a
// slot disagree with the engine's. ApplyPatched returns it before
// changing anything, so the caller can fall back to ApplyBatch.
var ErrDeltaMismatch = errors.New("core: cover delta does not fit the engine state")

// Cover delta encoding. Every integer is an unsigned varint in its
// minimal form:
//
//	version (one byte, 1)
//	numAttrs nextID fdCount nonFDCount
//	n, then n positive-cover entries
//	m, then m negative-cover entries
//
// and one entry is
//
//	flags (one byte: 1 was, 2 is, 4 has witness)
//	k, then k Lhs attributes as gaps (first attribute, then each
//	  attribute minus its predecessor minus one)
//	rhs
//	witness A, witness B (only with flag 4)
//
// The encoding is canonical: the decoder accepts exactly the byte strings
// AppendBinary produces, so decode and encode round-trip byte for byte.
const (
	coverDeltaVersion = 1

	flagWas     = 1
	flagIs      = 2
	flagWitness = 4

	minEntryBytes = 3 // flags, k = 0, rhs
)

// AppendBinary appends the delta's encoding to dst.
func (d *CoverDelta) AppendBinary(dst []byte) []byte {
	dst = append(dst, coverDeltaVersion)
	dst = binary.AppendUvarint(dst, uint64(d.NumAttrs))
	dst = binary.AppendUvarint(dst, uint64(d.NextID))
	dst = binary.AppendUvarint(dst, uint64(d.FDCount))
	dst = binary.AppendUvarint(dst, uint64(d.NonFDCount))
	dst = appendEntries(dst, d.FDs)
	return appendEntries(dst, d.NonFDs)
}

// appendEntries appends an entry list: its length, then each entry.
func appendEntries(dst []byte, list []lattice.Change) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	for _, en := range list {
		var flags byte
		if en.Was {
			flags |= flagWas
		}
		if en.Now.Present {
			flags |= flagIs
		}
		if en.Now.HasWitness {
			flags |= flagWitness
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(en.FD.Lhs.Count()))
		prev := -1
		for a := en.FD.Lhs.First(); a >= 0; a = en.FD.Lhs.Next(a) {
			dst = binary.AppendUvarint(dst, uint64(a-prev-1))
			prev = a
		}
		dst = binary.AppendUvarint(dst, uint64(en.FD.Rhs))
		if en.Now.HasWitness {
			dst = binary.AppendUvarint(dst, uint64(en.Now.Witness.A))
			dst = binary.AppendUvarint(dst, uint64(en.Now.Witness.B))
		}
	}
	return dst
}

// deltaReader consumes a cover delta encoding front to back.
type deltaReader struct{ canon.Reader }

// entries reads one entry list; negative selects the negative-cover
// rules (witnesses and witness-only changes allowed).
func (r *deltaReader) entries(numAttrs int, negative bool) []lattice.Change {
	// Every entry takes at least minEntryBytes, which bounds the count by
	// the input size before anything is allocated.
	n := r.Uvarint(uint64(len(r.B)/minEntryBytes), "entry count")
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]lattice.Change, 0, n)
	for i := uint64(0); i < n && r.Err == nil; i++ {
		flags := r.Byte("entry flags")
		en := lattice.Change{Was: flags&flagWas != 0}
		en.Now.Present = flags&flagIs != 0
		en.Now.HasWitness = flags&flagWitness != 0
		switch {
		case flags&^(flagWas|flagIs|flagWitness) != 0:
			r.Fail("unknown entry flags %#x", flags)
		case !en.Was && !en.Now.Present:
			r.Fail("entry neither was nor is a member")
		case en.Now.HasWitness && (!negative || !en.Now.Present):
			r.Fail("witness on a slot that cannot carry one")
		case en.Was && en.Now.Present && !negative:
			r.Fail("positive-cover entry that is no change")
		}
		k := r.Uvarint(uint64(numAttrs), "lhs size")
		prev := -1
		for j := uint64(0); j < k && r.Err == nil; j++ {
			a := prev + 1 + int(r.Uvarint(uint64(numAttrs), "lhs attribute"))
			if a >= numAttrs {
				r.Fail("lhs attribute %d out of range", a)
				break
			}
			en.FD.Lhs = en.FD.Lhs.With(a)
			prev = a
		}
		en.FD.Rhs = int(r.Uvarint(uint64(numAttrs-1), "rhs"))
		if r.Err == nil && en.FD.Lhs.Contains(en.FD.Rhs) {
			r.Fail("trivial slot %v", en.FD)
		}
		if en.Now.HasWitness {
			en.Now.Witness.A = int64(r.Uvarint(math.MaxInt64, "witness"))
			en.Now.Witness.B = int64(r.Uvarint(math.MaxInt64, "witness"))
		}
		if r.Err == nil && len(out) > 0 && !fd.Less(out[len(out)-1].FD, en.FD) {
			r.Fail("entries out of order at %v", en.FD)
		}
		out = append(out, en)
	}
	return out
}

// DecodeCoverDelta parses one AppendBinary encoding. It never panics; any
// input that is not exactly a canonical encoding — truncated, followed by
// extra bytes, out of order, out of range — fails with an error wrapping
// ErrBadCoverDelta.
func DecodeCoverDelta(b []byte) (*CoverDelta, error) {
	r := &deltaReader{canon.NewReader(b, ErrBadCoverDelta)}
	if v := r.Byte("version"); r.Err == nil && v != coverDeltaVersion {
		r.Fail("unknown version %d", v)
	}
	d := &CoverDelta{}
	d.NumAttrs = int(r.Uvarint(attrset.MaxAttrs, "attribute count"))
	if r.Err == nil && d.NumAttrs == 0 {
		r.Fail("attribute count 0")
	}
	d.NextID = int64(r.Uvarint(math.MaxInt64, "next id"))
	d.FDCount = int(r.Uvarint(math.MaxInt32, "fd count"))
	d.NonFDCount = int(r.Uvarint(math.MaxInt32, "non-fd count"))
	d.FDs = r.entries(d.NumAttrs, false)
	d.NonFDs = r.entries(d.NumAttrs, true)
	if r.Err == nil && len(r.B) > 0 {
		r.Fail("%d trailing bytes", len(r.B))
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return d, nil
}

// recordDelta turns the covers' journals into the delta of the batch that
// just finished. The entry slices are reused from batch to batch.
func (e *Engine) recordDelta(nextID int64) {
	d := &e.delta
	d.NumAttrs = e.numAttrs
	d.NextID = nextID
	d.FDCount = e.fds.Size()
	d.NonFDCount = e.nonFds.Size()
	d.FDs = e.fds.AppendChanges(d.FDs[:0])
	d.NonFDs = e.nonFds.AppendChanges(d.NonFDs[:0])
}

// AppendCoverDelta appends the encoding of the last successfully applied
// batch's cover delta to dst (see CoverDelta).
func (e *Engine) AppendCoverDelta(dst []byte) []byte { return e.delta.AppendBinary(dst) }

// ApplyPatched applies a batch whose cover delta is already known — a
// replication follower applying a primary's batch. It runs the same
// planner as ApplyBatch, so record ids match the primary's, and the same
// Pli store maintenance (Figure 1 step 1), then sets every slot the delta
// lists to its final state instead of running the delete and insert
// sweeps. The result reports the delta's positive-cover additions and
// removals, exactly what ApplyBatch reports on the primary.
//
// Before changing anything ApplyPatched checks that the delta fits:
// same schema width, same NextID after the batch, every listed slot in
// its listed before-state, and cover sizes that add up. A delta that does
// not fit returns an error wrapping ErrDeltaMismatch and leaves the
// engine untouched; batch errors (bad arity, unknown ids) behave as in
// ApplyBatch. Failures after the store changed poison the engine.
func (e *Engine) ApplyPatched(batch stream.Batch, d *CoverDelta) (res Result, err error) {
	if e.poisoned != nil {
		return Result{}, fmt.Errorf("core: engine poisoned by earlier failure, refusing batch: %w", e.poisoned)
	}
	for i, c := range batch.Changes {
		if err := c.Validate(e.numAttrs); err != nil {
			return Result{}, fmt.Errorf("core: batch change %d: %w", i, err)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: ApplyPatched panicked: %v\n%s", r, debug.Stack())
			e.poisoned = err
		}
	}()
	structStart := time.Now()
	p, err := e.planBatch(batch)
	if err != nil {
		return Result{}, err
	}
	if d.NumAttrs != e.numAttrs || d.NextID != p.nextID {
		return Result{}, fmt.Errorf("%w: delta for %d attributes ending at id %d, batch on %d attributes ends at %d",
			ErrDeltaMismatch, d.NumAttrs, d.NextID, e.numAttrs, p.nextID)
	}
	if err := fitsCover(e.fds, d.FDs, d.FDCount); err != nil {
		return Result{}, fmt.Errorf("%w: positive cover: %v", ErrDeltaMismatch, err)
	}
	if err := fitsCover(e.nonFds, d.NonFDs, d.NonFDCount); err != nil {
		return Result{}, fmt.Errorf("%w: negative cover: %v", ErrDeltaMismatch, err)
	}

	if err := e.maintainStore(p, structStart); err != nil {
		return Result{}, err
	}

	e.fds.ResetJournal()
	e.nonFds.ResetJournal()
	start := time.Now()
	patchCover(e.nonFds, d.NonFDs)
	e.stats.DeletePhaseTime += time.Since(start)
	start = time.Now()
	patchCover(e.fds, d.FDs)
	e.stats.InsertPhaseTime += time.Since(start)
	e.stats.CoverPatches++
	return e.finishBatch(p), nil
}

// fitsCover checks that every entry's before-state matches the cover and
// that applying the entries yields a cover of the given size.
func fitsCover(c lattice.View, entries []lattice.Change, size int) error {
	n := c.Size()
	for _, en := range entries {
		if c.Contains(en.FD.Lhs, en.FD.Rhs) != en.Was {
			return fmt.Errorf("slot %v: member = %v, delta says %v", en.FD, !en.Was, en.Was)
		}
		switch {
		case en.Now.Present && !en.Was:
			n++
		case en.Was && !en.Now.Present:
			n--
		}
	}
	if n != size {
		return fmt.Errorf("patched size %d, delta says %d", n, size)
	}
	return nil
}

// patchCover sets every listed slot to its final state: removals first,
// so the cover never holds a member next to its replacement.
func patchCover(c lattice.View, entries []lattice.Change) {
	for _, en := range entries {
		if !en.Now.Present {
			c.Remove(en.FD.Lhs, en.FD.Rhs)
		}
	}
	for _, en := range entries {
		if !en.Now.Present {
			continue
		}
		if !en.Was {
			c.Add(en.FD.Lhs, en.FD.Rhs)
		}
		if en.Now.HasWitness {
			c.SetViolation(en.FD.Lhs, en.FD.Rhs, en.Now.Witness)
		} else {
			c.ClearViolation(en.FD.Lhs, en.FD.Rhs)
		}
	}
}

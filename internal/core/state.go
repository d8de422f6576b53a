package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"dynfd/internal/attrset"
	"dynfd/internal/canon"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
)

// The engine state encoding is the relation and both covers in the
// dictionary-coded form the engine keeps them in (§3.1): the body of a
// durable checkpoint (DESIGN.md §11). Every integer is an unsigned varint
// in its minimal form:
//
//	nextID
//	n, then n record ids as gaps (first id, then each id minus its
//	  predecessor minus one)
//	per attribute, n codes, one per record in id order; a code equal to
//	  the number of distinct values seen so far in the attribute
//	  introduces the next one, followed by its length and bytes
//	the positive cover, then the negative cover, as cover-delta entry
//	  lists (coverdelta.go) whose every entry is a plain member: flag
//	  "is", plus "has witness" for an annotated non-FD
//
// Codes number each attribute's values in order of first occurrence, which
// is the order Restore mints cluster ids in, so a restored engine has the
// cids of the engine that wrote the state. The schema width and the
// configuration are not part of the encoding; the checkpoint header holds
// them.
//
// The encoding is canonical: ids ascend below nextID, every value is
// introduced once per attribute, and the covers are in fd.Less order
// without duplicates, so a decoded and restored state re-encodes byte for
// byte. The decoder checks all of it but one rule: a value introduced
// twice in an attribute is caught by Restore, whose bulk loader hashes
// each attribute's dictionary into its inverted index anyway and refuses
// a repeat there (pli.Store.Load).

// ErrBadState classifies every DecodeState failure.
var ErrBadState = errors.New("core: malformed engine state")

// AppendState appends the encoding of the engine's relation and covers to
// dst. It reads the records' cluster ids straight from the store: a dense
// cid → code slice per attribute, no string hashing, no decoded tuples.
func (e *Engine) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.store.NextID()))
	ids := make([]int64, 0, e.store.NumRecords())
	e.store.ForEachRecord(func(id int64, _ pli.Record) bool {
		ids = append(ids, id)
		return true
	})
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := int64(-1)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id-prev-1))
		prev = id
	}
	// Most codes fit a byte; values are appended as they are reached.
	dst = slices.Grow(dst, len(ids)*e.numAttrs)
	var code []uint32 // cid → code+1; 0 marks a cid not reached yet
	for a := 0; a < e.numAttrs; a++ {
		ix := e.store.Index(a)
		code = slices.Grow(code[:0], int(ix.Horizon()))[:ix.Horizon()]
		clear(code)
		var seen uint32
		for _, id := range ids {
			cid := e.store.Rec(id)[a]
			if c := code[cid]; c > 0 {
				dst = binary.AppendUvarint(dst, uint64(c-1))
				continue
			}
			dst = binary.AppendUvarint(dst, uint64(seen))
			seen++
			code[cid] = seen
			v := ix.Cluster(cid).Value
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
	}
	dst = appendEntries(dst, e.coverMembers(e.fds))
	return appendEntries(dst, e.coverMembers(e.nonFds))
}

// coverMembers lists a cover's members in fd.Less order as plain entries,
// with their witnesses.
func (e *Engine) coverMembers(c lattice.View) []lattice.Change {
	all := c.All()
	out := make([]lattice.Change, len(all))
	for i, f := range all {
		out[i].FD = f
		out[i].Now.Present = true
		out[i].Now.Witness, out[i].Now.HasWitness = c.Violation(f.Lhs, f.Rhs)
	}
	return out
}

// DecodeState parses one AppendState encoding of a relation with numAttrs
// attributes into a snapshot for Restore; the snapshot's Config is left
// zero. It never panics; any input that is not exactly a canonical
// encoding fails with an error wrapping ErrBadState, except a value
// introduced twice in one attribute, which Restore refuses. The relation
// stays dictionary-coded, as Restore loads it: record ids, one code per
// record and attribute, and per attribute the introduced values, each a
// string of its own that aliases neither b nor the other values. The
// snapshot's Records stay empty.
func DecodeState(b []byte, numAttrs int) (*Snapshot, error) {
	if numAttrs <= 0 || numAttrs > attrset.MaxAttrs {
		return nil, fmt.Errorf("%w: attribute count %d", ErrBadState, numAttrs)
	}
	r := &deltaReader{canon.NewReader(b, ErrBadState)}
	s := &Snapshot{NumAttrs: numAttrs}
	s.NextID = int64(r.Uvarint(math.MaxInt64, "next id"))
	// A record takes at least one byte for its id and one per code.
	n := r.Uvarint(uint64(len(r.B)/(1+numAttrs)), "record count")
	rel := &pli.Coded{Codes: make([][]int32, numAttrs), Dicts: make([][]string, numAttrs)}
	if r.Err == nil && n > 0 {
		rel.IDs = make([]int64, n)
	}
	prev := int64(-1)
	for i := range rel.IDs {
		if prev+1 >= s.NextID {
			r.Fail("record id beyond next id %d", s.NextID)
			break
		}
		prev += 1 + int64(r.Uvarint(uint64(s.NextID-prev-2), "record id"))
		rel.IDs[i] = prev
	}
	codes := make([]int32, len(rel.IDs)*numAttrs)
	for a := 0; a < numAttrs && r.Err == nil; a++ {
		col := codes[a*len(rel.IDs) : (a+1)*len(rel.IDs) : (a+1)*len(rel.IDs)]
		var dict []string
		for i := range col {
			// The hot loop: a valid code is read inline; anything else goes
			// to the reader to be refused.
			c, k := binary.Uvarint(r.B)
			if k > 0 && (k == 1 || r.B[k-1] != 0) && c <= uint64(len(dict)) {
				r.B = r.B[k:]
			} else {
				c = r.Uvarint(uint64(len(dict)), "code")
			}
			if r.Err != nil {
				break
			}
			if c == uint64(len(dict)) {
				dict = append(dict, string(r.Bytes(r.Uvarint(uint64(len(r.B)), "value length"), "value")))
			}
			col[i] = int32(c)
		}
		rel.Codes[a], rel.Dicts[a] = col, dict
	}
	s.coded = rel
	for _, negative := range []bool{false, true} {
		for _, en := range r.entries(numAttrs, negative) {
			if en.Was || !en.Now.Present {
				r.Fail("cover entry %v is a change, not a member", en.FD)
				break
			}
			lhs := en.FD.Lhs.Slice()
			if !negative {
				s.FDs = append(s.FDs, FDSnapshot{Lhs: lhs, Rhs: en.FD.Rhs})
				continue
			}
			s.NonFDs = append(s.NonFDs, NonFDSnapshot{Lhs: lhs, Rhs: en.FD.Rhs,
				Witness: [2]int64{en.Now.Witness.A, en.Now.Witness.B}, HasPair: en.Now.HasWitness})
		}
	}
	if r.Err == nil && len(r.B) > 0 {
		r.Fail("%d trailing bytes", len(r.B))
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return s, nil
}

package pli

import (
	"fmt"
	"hash/maphash"
)

// valueIndex is an attribute's inverted value index: it finds the cluster
// id of a value (DESIGN.md §10). It is an open-addressing table of cluster
// ids with linear probing and backward-shift deletion. Each slot is one
// uint64, zero when empty, else (cid+1)<<32 | h, where h is the value's
// 32-bit hash; a value's home slot is h&(len(slots)-1). The table holds no
// strings: a lookup compares a candidate's value read from where the value
// already lives — the cluster directory for a live index, the dictionary a
// bulk load is building — so the garbage collector never scans it. The hash
// is seeded per table through hash/maphash, as Go maps are, so crafted
// values cannot force long probe chains. Growth doubles the table past 3/4
// load and rehomes every slot from its stored hash, without reading a
// value; the table never shrinks.
type valueIndex struct {
	slots []uint64
	n     int // occupied slots
	seed  maphash.Seed
}

// minValueSlots is the size of a table's first allocation.
const minValueSlots = 8

func newValueIndex() valueIndex { return valueIndex{seed: maphash.MakeSeed()} }

// hash returns v's 32-bit hash under the table's seed.
func (t *valueIndex) hash(v string) uint32 { return uint32(maphash.String(t.seed, v)) }

func valueSlot(cid int32, h uint32) uint64 { return uint64(cid+1)<<32 | uint64(h) }

// slotCid returns the cid an occupied slot holds.
func slotCid(s uint64) int32 { return int32(s>>32) - 1 }

// find returns the cid filed under v, whose hash is h, reading each
// candidate's value through value. When v is absent, ok is false and slot
// is the empty slot where put would file it (-1 while the table is
// unallocated).
func (t *valueIndex) find(v string, h uint32, value func(cid int32) string) (cid int32, slot int, ok bool) {
	if len(t.slots) == 0 {
		return -1, -1, false
	}
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i, false
		}
		if uint32(s) == h {
			if c := slotCid(s); value(c) == v {
				return c, i, true
			}
		}
	}
}

// put files cid under hash h at slot, the empty slot find returned for its
// value, growing the table first when the new entry would take it past 3/4
// load.
func (t *valueIndex) put(slot int, cid int32, h uint32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(max(2*len(t.slots), minValueSlots))
		slot = t.emptySlot(h)
	}
	t.slots[slot] = valueSlot(cid, h)
	t.n++
}

// reserve grows the table so that n entries fit within 3/4 load.
func (t *valueIndex) reserve(n int) {
	size := minValueSlots
	for 4*n > 3*size {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// resize rehomes every entry into a table of size slots, a power of two.
// Cluster ids are int32, so size stays within 1<<32 and the 32-bit hash
// reaches every slot.
func (t *valueIndex) resize(size int) {
	old := t.slots
	t.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			t.slots[t.emptySlot(uint32(s))] = s
		}
	}
}

// emptySlot returns the first empty slot on hash h's probe sequence.
func (t *valueIndex) emptySlot(h uint32) int {
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// remove deletes the entry of cid, filed under hash h, and shifts the
// entries behind it on its probe chain back, so that no lookup meets a
// hole before its entry. It panics when the entry is missing.
func (t *valueIndex) remove(cid int32, h uint32) {
	want := valueSlot(cid, h)
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i] != want {
		if t.slots[i] == 0 {
			panic(fmt.Sprintf("pli: value index has no entry for cluster %d", cid))
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then a lookup from its home would not
		// pass i.
		if home := int(uint32(t.slots[j])) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// diagnose explains why the lookup of cid's value v, filed under hash h,
// misses: the entry naming cid is absent, filed under another hash, or
// unreachable because an empty slot lies between its home and it. It scans
// the whole table, for CheckConsistency's error path only.
func (t *valueIndex) diagnose(cid int32, h uint32) string {
	mask := len(t.slots) - 1
	for i, s := range t.slots {
		if s == 0 || slotCid(s) != cid {
			continue
		}
		if uint32(s) != h {
			return fmt.Sprintf("files it in table slot %d under stale hash %#x (want %#x)", i, uint32(s), h)
		}
		home := int(h) & mask
		for j := home; j != i; j = (j + 1) & mask {
			if t.slots[j] == 0 {
				return fmt.Sprintf("files it in table slot %d, past a hole at slot %d in the probe chain from home slot %d", i, j, home)
			}
		}
		return fmt.Sprintf("files it in table slot %d", i)
	}
	return "has no entry for it"
}

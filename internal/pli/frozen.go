package pli

import (
	"math/bits"
)

// Frozen is an immutable point-in-time view of a Store: the compressed
// (cluster-id) tuples and liveness of every record that was live when
// Freeze was called, and each attribute's cluster directory, from which the
// distinct values live at freeze time are read. It is safe for unlimited
// concurrent readers and stays valid forever — later Store mutations never
// touch the memory a Frozen view reads.
//
// Sharing works without copying the arena because of two Store invariants:
// record slots are written exactly once (surrogate ids are never reused and
// a freed page's slab is never resurrected), and all liveness flips go
// through a copy-on-write step (Store.mutableLive) while a bitmap is
// shared. A Frozen view therefore holds the page and bitmap slice headers
// of the freeze instant; the Store clones a page's bitmap before the next
// flip and allocates fresh slabs for new pages, leaving the frozen memory
// untouched.
//
// The cluster directories are shared the same way, with one difference:
// the Store writes fresh cluster ids into a shared directory page in place
// (it clones a shared page only before clearing a slot). A fresh cid is at
// or above the horizon the view recorded (Index.next at freeze time), so a
// frozen reader checks the horizon before it loads a slot and never loads
// one the Store may still write. Of a frozen cluster only the immutable
// Value may be read: its IDs keep changing with the live store.
//
// Within one attribute, equal cluster ids mean equal values among the
// records live at freeze time, which is exactly what FD/UCC/violation
// queries need; value-set queries (INDs) read the directory.
type Frozen struct {
	numAttrs int
	pages    [][]int32
	live     [][]uint64
	numRecs  int
	nextID   int64

	dirs     [][][]*Cluster // per attribute: directory page headers
	horizons []int32        // per attribute: cid horizon at freeze time
}

// Freeze captures an immutable view of the store's current records and
// cluster directories. It requires the same access as a read (no staged
// batch open, no concurrent mutator) and costs O(pages): slice-header
// copies plus marking every record-arena bitmap and directory page shared.
func (s *Store) Freeze() *Frozen {
	if s.staged != nil {
		panic("pli: Freeze with a staged batch open")
	}
	for pg := range s.live {
		if s.live[pg] != nil {
			s.liveShared[pg] = true
		}
	}
	f := &Frozen{
		numAttrs: s.numAttrs,
		pages:    append([][]int32(nil), s.pages...),
		live:     append([][]uint64(nil), s.live...),
		numRecs:  s.numRecs,
		nextID:   s.nextID,
		dirs:     make([][][]*Cluster, s.numAttrs),
		horizons: make([]int32, s.numAttrs),
	}
	for a := range s.shards {
		ix := s.shards[a].ix
		for p, page := range ix.dir {
			if page != nil {
				ix.dirShared[p] = true
			}
		}
		f.dirs[a] = append([][]*Cluster(nil), ix.dir...)
		f.horizons[a] = ix.next
	}
	return f
}

// NumAttrs returns the schema width.
func (f *Frozen) NumAttrs() int { return f.numAttrs }

// NumRecords returns the tuple count at freeze time.
func (f *Frozen) NumRecords() int { return f.numRecs }

// NextID returns the surrogate id horizon at freeze time: every frozen
// record id is below it.
func (f *Frozen) NextID() int64 { return f.nextID }

// Alive reports whether id was live at freeze time.
func (f *Frozen) Alive(id int64) bool {
	pg := id >> pageBits
	if id < 0 || pg >= int64(len(f.pages)) || f.live[pg] == nil {
		return false
	}
	slot := id & pageMask
	return f.live[pg][slot>>6]&(1<<(slot&63)) != 0
}

// Rec returns the compressed record for id without a liveness check,
// mirroring Store.Rec. The returned slice aliases the frozen arena and
// must not be modified.
func (f *Frozen) Rec(id int64) Record {
	off := int(id&pageMask) * f.numAttrs
	return f.pages[id>>pageBits][off : off+f.numAttrs : off+f.numAttrs]
}

// ForEachRecord calls fn for every record live at freeze time in ascending
// id order (the same guarantee as Store.ForEachRecord).
func (f *Frozen) ForEachRecord(fn func(id int64, rec Record) bool) {
	for pg, bm := range f.live {
		if bm == nil {
			continue
		}
		base := int64(pg) << pageBits
		for w, word := range bm {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				id := base + int64(w<<6+b)
				if !fn(id, f.Rec(id)) {
					return
				}
			}
		}
	}
}

// ForEachValue calls fn for every distinct value attribute a held at freeze
// time, in ascending cluster-id order. It costs O(directory pages below the
// horizon) and allocates nothing.
func (f *Frozen) ForEachValue(a int, fn func(v string) bool) {
	h := int(f.horizons[a])
	for p, page := range f.dirs[a] {
		base := p << dirBits
		if base >= h {
			return
		}
		if page == nil {
			continue
		}
		// Bound the slots by the horizon before loading any: slots at or
		// above it may be written concurrently by the live store.
		for _, c := range page[:min(dirPageSize, h-base)] {
			if c != nil && !fn(c.Value) {
				return
			}
		}
	}
}

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
// The cluster directories are shared the same way, with two differences.
// The Store writes fresh cluster ids into a shared directory page in place;
// a fresh cid is at or above the horizon the view recorded (Index.next at
// freeze time), so a frozen reader checks the horizon before it loads a
// slot and never loads one the Store may still write. And a cluster that
// dies on a shared page stays in its slot (Index.kill) until the page is
// renewed, so a frozen page may hold clusters that were already dead at
// freeze time: slot occupancy does not say which clusters were live. Of a
// frozen cluster only the immutable Value may be read: its IDs keep
// changing with the live store.
//
// Within one attribute, equal cluster ids mean equal values among the
// records live at freeze time, which is exactly what key and violation
// queries need: ForEachGroup rebuilds an attribute's cluster membership
// from the frozen records alone. Value-set queries (INDs) take the cids
// live at freeze from the frozen records too, and read only their values
// from the directory.
type Frozen struct {
	numAttrs int
	pages    [][]int32
	live     [][]uint64
	numRecs  int

	attrs []frozenAttr // per attribute
}

// frozenAttr is one attribute's Pli at freeze time.
type frozenAttr struct {
	dir      [][]*Cluster // directory page headers
	horizon  int32        // cid horizon
	clusters int32        // live cluster count
}

// Freeze captures an immutable view of the store's current records and
// cluster directories. It requires the same access as a read (no staged
// batch open, no concurrent mutator) and costs O(pages): slice-header
// copies plus marking every record-arena bitmap and directory page shared.
// All attributes' directory headers share one allocation.
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
		attrs:    make([]frozenAttr, s.numAttrs),
	}
	pages := 0
	for a := range s.shards {
		pages += len(s.shards[a].ix.dir)
	}
	dirs := make([][]*Cluster, 0, pages)
	for a := range s.shards {
		ix := s.shards[a].ix
		for p, page := range ix.dir {
			if page != nil {
				ix.dirShared[p] = true
			}
		}
		start := len(dirs)
		dirs = append(dirs, ix.dir...)
		f.attrs[a] = frozenAttr{
			dir:      dirs[start:len(dirs):len(dirs)],
			horizon:  ix.next,
			clusters: int32(ix.NumClusters()),
		}
	}
	return f
}

// NumAttrs returns the schema width.
func (f *Frozen) NumAttrs() int { return f.numAttrs }

// NumRecords returns the tuple count at freeze time.
func (f *Frozen) NumRecords() int { return f.numRecs }

// NumClusters returns attribute a's cluster count at freeze time (the
// distinct values of its records), mirroring Index.NumClusters.
func (f *Frozen) NumClusters(a int) int { return int(f.attrs[a].clusters) }

// Arena returns the frozen record arena.
func (f *Frozen) Arena() Arena { return Arena{pages: f.pages, numAttrs: f.numAttrs} }

// Rec returns the compressed record for id without a liveness check,
// mirroring Store.Rec. The returned slice aliases the frozen arena and
// must not be modified.
func (f *Frozen) Rec(id int64) Record { return f.Arena().Rec(id) }

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
// time, in ascending cluster-id order. It finds the cids live at freeze
// with ForEachGroup's counting pass over the frozen records and reads only
// their slots, so it costs O(live records + horizon) and allocates nothing
// once g is warm. A frozen record names only cids below the view's horizon,
// so no slot the live store may still write is loaded.
func (f *Frozen) ForEachValue(a int, g *GroupBuf, fn func(v string) bool) {
	dir := f.attrs[a].dir
	for cid, n := range f.count(a, g, false) {
		if n > 0 && !fn(dir[cid>>dirBits][cid&dirMask].Value) {
			return
		}
	}
}

// GroupBuf is the reusable working memory of Frozen.ForEachGroup and
// Frozen.ForEachValue. The zero value is ready to use; it grows to the
// largest attribute horizon and relation it has grouped.
type GroupBuf struct {
	ends []int32 // per cid: member count, then end offset in ids (-1: fewer than two members)
	cids []int32 // per live record, in id order: its cid
	ids  []int64 // members of multi-record clusters, grouped by cid
}

// ForEachGroup calls fn with the member ids of every cluster of attribute a
// that held at least two records at freeze time, in ascending cid order with
// ascending ids: the clusters, and the order, that Index.ForEachCluster
// gives on the live store at the freeze instant, less the single-record
// ones. The ids slice is only valid during the call.
//
// A frozen view may not read its clusters' IDs (they follow the live
// store), so the pass rebuilds the membership from the frozen records: a
// counting pass over the live records reads column a into a dense count
// array sized to a's horizon, a prefix sum over the counts gives each
// multi-record cluster its slot range and drops the rest, and a placement
// pass fills the slots from the counting pass's cids. The cost is
// O(live records + horizon); only the members of multi-record clusters
// are stored, and it allocates nothing once g is warm.
func (f *Frozen) ForEachGroup(a int, g *GroupBuf, fn func(ids []int64) bool) {
	ends := f.count(a, g, true)
	cids := g.cids
	total := int32(0)
	for cid, n := range ends {
		if n < 2 {
			ends[cid] = -1
			continue
		}
		ends[cid] = total
		total += n
	}
	if cap(g.ids) < int(total) {
		g.ids = make([]int64, total)
	}
	ids := g.ids[:total]
	k := 0
	for pg, bm := range f.live {
		base := int64(pg) << pageBits
		for w, word := range bm {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				if cid := cids[k]; ends[cid] >= 0 {
					ids[ends[cid]] = base + int64(w<<6+b)
					ends[cid]++
				}
				k++
			}
		}
	}
	start := int32(0)
	for _, end := range ends {
		if end < 0 {
			continue
		}
		if !fn(ids[start:end]) {
			return
		}
		start = end
	}
}

// count is the counting pass of ForEachGroup and ForEachValue: it returns
// g.ends sized to attribute a's horizon, holding each cid's member count
// among the records live at freeze time. With keepCids it also leaves
// each of those records' cid, in id order, in g.cids, for ForEachGroup's
// placement pass. It walks the liveness bitmaps and reads column a
// straight from each record's arena page.
func (f *Frozen) count(a int, g *GroupBuf, keepCids bool) []int32 {
	h := int(f.attrs[a].horizon)
	if cap(g.ends) < h {
		g.ends = make([]int32, h)
	}
	ends := g.ends[:h]
	clear(ends)
	cids := g.cids[:0]
	for pg, bm := range f.live {
		page := f.pages[pg]
		for w, word := range bm {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				cid := page[(w<<6+b)*f.numAttrs+a]
				ends[cid]++
				if keepCids {
					cids = append(cids, cid)
				}
			}
		}
	}
	g.cids = cids
	return ends
}

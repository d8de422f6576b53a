// Allocation-free validation kernel (DESIGN.md §9).
//
// The original validation path grouped each pivot cluster through a
// map[string]... keyed by a byte-encoding of the rest-Lhs cluster ids,
// which allocated a key string per record and a fresh map per call. The
// kernel below replaces that with an open-addressing hash table probed
// directly over the int32 cluster-id tuples of the compressed records: no
// key encoding, no string allocation, no map. All working memory lives in
// a Scratch that is reused across calls, so a warm Scratch validates with
// zero allocations per call (pinned by TestFDZeroAllocs).
//
// Three kernels share the table machinery, specialized by rest width
// (rest = Lhs minus the pivot attribute):
//
//   - |rest| == 0: the pivot cluster is a single group — a linear scan
//     compares Rhs cluster ids directly, no table at all.
//   - |rest| == 1: groups are keyed by one cluster id — the table stores
//     single int32 keys and the probe is one comparison.
//   - |rest| >= 2: groups are keyed by the full rest tuple, stored
//     flattened in one backing slice.
//
// FD, Unique, and Violations all run on these kernels; Violations adds a
// second counting pass over the same table to derive per-group Rhs
// statistics (distinct values and plurality count) without its former
// map[int32]int per group.
//
// The Unique and Violations kernels check one pivot group: a member-id
// slice read through a pli.Arena. On the live store the groups are the
// pivot's clusters; on a frozen snapshot (FrozenUnique, FrozenViolations)
// they come from pli.Frozen.ForEachGroup, so a published snapshot answers
// its key and violation queries with the same kernels. The FD kernels run
// only on the live store and read its clusters directly.
package validate

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// Scratch holds the reusable working memory of the validation kernels.
// A Scratch may be used by one goroutine at a time; see Scratches for the
// per-worker ownership used by the engine's scheduler. The zero value is ready to use and
// warms up (grows its buffers to the workload's cluster sizes) over the
// first few calls.
type Scratch struct {
	rest []int // rest attributes of the current candidate, ascending

	// Cluster pruning state (see walkClusters): the live ids >= minNewID,
	// their distinct pivot cluster ids, and each cluster's first new id.
	newIDs []int64
	cids   []int32
	firsts []int64

	// Open-addressing table, shared by the grouping and counting passes.
	// slots[i] holds a group/pair index + 1, 0 means empty. The table is
	// sized per cluster to the next power of two >= 2*cluster size and
	// cleared up to that size only, so small clusters stay cheap even
	// after a huge cluster grew the backing array.
	slots []int32

	// Per-group storage, appended in first-occurrence order.
	keys []int32 // flattened rest tuples, |rest| entries per group
	grhs []int32 // Rhs cluster id of the group's first record (FD)
	rep  []int64 // the group's first record id (witness partner)

	// Violations state (see violationsCluster).
	gof   []int32 // per cluster position: group index
	rcid  []int32 // per cluster position: Rhs cluster id
	gsize []int32 // per group: member count
	gdist []int32 // per group: distinct Rhs values
	gmax  []int32 // per group: plurality Rhs count
	gout  []int32 // per group: write cursor in vids, -1 if not violating
	pairG []int32 // per (group, rhs) pair: group index
	pairR []int32 // per (group, rhs) pair: rhs cluster id
	pairN []int32 // per (group, rhs) pair: record count

	// The violating groups found so far in one Violations call: their
	// members, flattened, and a span per group. violationGroups copies out
	// only the groups it returns.
	vids     []int64
	vspans   []span
	removals int

	groups pli.GroupBuf // frozen pivot grouping (FrozenUnique, FrozenViolations)
}

// span is one violating group in Scratch.vids.
type span struct {
	first     int64 // smallest member id, the output order key
	off, n    int
	rhsValues int
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs the package-level FD/Unique/Violations wrappers so
// cold call sites do not pay a fresh Scratch per call.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// setRest loads the rest attributes into the scratch and returns their
// count. Iteration is an explicit loop (not attrset.ForEach) so the hot
// path carries no closure.
func (sc *Scratch) setRest(rest attrset.Set) int {
	sc.rest = sc.rest[:0]
	for a := rest.First(); a >= 0; a = rest.Next(a) {
		sc.rest = append(sc.rest, a)
	}
	return len(sc.rest)
}

// tableSize returns the open-addressing table size for a cluster of m
// records: the next power of two >= 2*m (load factor <= 0.5), at least 4.
func tableSize(m int) int {
	n := 1 << bits.Len(uint(2*m-1))
	if n < 4 {
		n = 4
	}
	return n
}

// table returns the cleared probe table of the given power-of-two size,
// growing the backing array if needed.
func (sc *Scratch) table(n int) []int32 {
	if cap(sc.slots) < n {
		sc.slots = make([]int32, n)
	}
	t := sc.slots[:n]
	clear(t)
	return t
}

// grow32 returns buf resized to n entries, reusing its backing array when
// possible. Contents are unspecified.
func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

const hashMul = 0x9E3779B185EBCA87 // 2^64 / φ, the usual Fibonacci constant

// hash1 hashes a single cluster id.
func hash1(cid int32) uint32 {
	return uint32((uint64(uint32(cid)) * hashMul) >> 32)
}

// hash2 hashes a (group index, cluster id) pair for the counting pass.
func hash2(g, cid int32) uint32 {
	h := (uint64(uint32(g))<<32 | uint64(uint32(cid))) * hashMul
	return uint32(h>>32) ^ uint32(h)
}

// hashRest hashes the rest-tuple of a compressed record.
func (sc *Scratch) hashRest(rec pli.Record) uint32 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, a := range sc.rest {
		h = (h ^ uint64(uint32(rec[a]))) * hashMul
	}
	return uint32(h>>32) ^ uint32(h)
}

// keyEqual reports whether group gi's stored rest tuple matches rec.
func (sc *Scratch) keyEqual(gi int32, rec pli.Record) bool {
	key := sc.keys[int(gi)*len(sc.rest):]
	for j, a := range sc.rest {
		if key[j] != rec[a] {
			return false
		}
	}
	return true
}

// walkClusters calls fn for every pivot cluster the validation must check,
// stopping early when fn returns false. Size-1 clusters are skipped: a
// single record cannot violate anything.
//
// With minNewID == NoPruning every cluster is visited, in ascending
// cluster-id order, and fn's first argument is -1. Otherwise only the
// clusters holding a live record with id >= minNewID are visited (cluster
// pruning, paper §4.2), and fn also receives the cluster's first new id.
// They are found from the new records themselves: the live ids >= minNewID
// come from the liveness bitmaps in ascending order, and each maps to its
// pivot cluster id, deduplicated through the probe table. Clusters are
// visited in the order of their first new record, so the walk (and the
// witness) is a pure function of the store. The cost is O(new records +
// their pivot clusters), independent of the pivot's total cluster count;
// the probe table is free again before the first fn call.
func (sc *Scratch) walkClusters(s *pli.Store, pivot int, minNewID int64, fn func(firstNew int64, c *pli.Cluster) bool) {
	ix := s.Index(pivot)
	if minNewID < 0 {
		ix.ForEachCluster(func(_ int32, c *pli.Cluster) bool {
			return c.Size() < 2 || fn(-1, c)
		})
		return
	}
	sc.newIDs = s.AppendLiveFrom(sc.newIDs[:0], minNewID)
	sc.cids, sc.firsts = sc.cids[:0], sc.firsts[:0]
	all := ix.NumClusters()
	slots := sc.table(tableSize(min(len(sc.newIDs), all)))
	mask := uint32(len(slots) - 1)
collect:
	for _, id := range sc.newIDs {
		cid := s.Rec(id)[pivot]
		slot := hash1(cid) & mask
		for {
			g := slots[slot]
			if g == 0 {
				slots[slot] = int32(len(sc.cids)) + 1
				sc.cids = append(sc.cids, cid)
				sc.firsts = append(sc.firsts, id)
				if len(sc.cids) == all {
					break collect // every cluster selected: large batches stop early
				}
				break
			}
			if sc.cids[g-1] == cid {
				break
			}
			slot = (slot + 1) & mask
		}
	}
	for i, cid := range sc.cids {
		if c := ix.Cluster(cid); c.Size() >= 2 && !fn(sc.firsts[i], c) {
			return
		}
	}
}

// FD validates lhs → rhs against the store using the scratch's buffers;
// it is the allocation-free form of the package-level FD function and
// shares its semantics (including cluster pruning via minNewID).
//
// With pruning, the witness is the violating pair with the smallest B,
// then the smallest A, the canonical witness of the agree-mask index
// (agree.go). A cluster's check stops at its first conflict in ascending
// id order, which is that cluster's smallest such pair; a later cluster
// can only beat it while its first new record precedes the best B found,
// because under the pruning precondition every violating pair's B is new.
// Clusters come in ascending first-new-record order, so the walk stops
// there.
func (sc *Scratch) FD(s *pli.Store, lhs attrset.Set, rhs int, minNewID int64) (valid bool, w Witness) {
	if s.NumRecords() <= 1 {
		return true, Witness{}
	}
	if lhs.IsEmpty() {
		return constantColumn(s, rhs)
	}
	pivot := pickPivot(s, lhs)
	k := sc.setRest(lhs.Without(pivot))
	valid = true
	sc.walkClusters(s, pivot, minNewID, func(firstNew int64, c *pli.Cluster) bool {
		if !valid && w.B < firstNew {
			return false
		}
		var ok bool
		var cw Witness
		switch k {
		case 0:
			ok, cw = fdCheckWholeCluster(s, c, rhs)
		case 1:
			ok, cw = sc.fdCheckSingle(s, c, sc.rest[0], rhs)
		default:
			ok, cw = sc.fdCheckTuple(s, c, rhs)
		}
		if !ok && (valid || cw.B < w.B) {
			valid, w = false, cw
		}
		return valid || firstNew >= 0
	})
	return valid, w
}

// fdCheckWholeCluster handles |rest| == 0: the pivot cluster is one group,
// so the FD holds on it iff all members share one Rhs cluster id.
func fdCheckWholeCluster(s *pli.Store, c *pli.Cluster, rhs int) (bool, Witness) {
	first := c.IDs[0]
	want := s.Rec(first)[rhs]
	for _, id := range c.IDs[1:] {
		if s.Rec(id)[rhs] != want {
			return false, Witness{A: first, B: id}
		}
	}
	return true, Witness{}
}

// fdCheckSingle handles |rest| == 1: groups are keyed by one cluster id,
// probed without touching the tuple path.
func (sc *Scratch) fdCheckSingle(s *pli.Store, c *pli.Cluster, restAttr, rhs int) (bool, Witness) {
	slots := sc.table(tableSize(c.Size()))
	mask := uint32(len(slots) - 1)
	sc.keys, sc.grhs, sc.rep = sc.keys[:0], sc.grhs[:0], sc.rep[:0]
	for _, id := range c.IDs {
		rec := s.Rec(id)
		cid := rec[restAttr]
		slot := hash1(cid) & mask
		for {
			g := slots[slot]
			if g == 0 {
				slots[slot] = int32(len(sc.rep)) + 1
				sc.keys = append(sc.keys, cid)
				sc.grhs = append(sc.grhs, rec[rhs])
				sc.rep = append(sc.rep, id)
				break
			}
			if gi := g - 1; sc.keys[gi] == cid {
				if sc.grhs[gi] != rec[rhs] {
					return false, Witness{A: sc.rep[gi], B: id}
				}
				break
			}
			slot = (slot + 1) & mask
		}
	}
	return true, Witness{}
}

// fdCheckTuple handles |rest| >= 2: groups are keyed by the full rest
// tuple, stored flattened in sc.keys.
func (sc *Scratch) fdCheckTuple(s *pli.Store, c *pli.Cluster, rhs int) (bool, Witness) {
	slots := sc.table(tableSize(c.Size()))
	mask := uint32(len(slots) - 1)
	sc.keys, sc.grhs, sc.rep = sc.keys[:0], sc.grhs[:0], sc.rep[:0]
	for _, id := range c.IDs {
		rec := s.Rec(id)
		slot := sc.hashRest(rec) & mask
		for {
			g := slots[slot]
			if g == 0 {
				slots[slot] = int32(len(sc.rep)) + 1
				for _, a := range sc.rest {
					sc.keys = append(sc.keys, rec[a])
				}
				sc.grhs = append(sc.grhs, rec[rhs])
				sc.rep = append(sc.rep, id)
				break
			}
			if gi := g - 1; sc.keyEqual(gi, rec) {
				if sc.grhs[gi] != rec[rhs] {
					return false, Witness{A: sc.rep[gi], B: id}
				}
				break
			}
			slot = (slot + 1) & mask
		}
	}
	return true, Witness{}
}

// Unique checks column-combination uniqueness using the scratch's buffers;
// it is the allocation-free form of the package-level Unique function.
// When the pivot has one cluster per record, cols is unique without a
// walk (the key short-circuit).
func (sc *Scratch) Unique(s *pli.Store, cols attrset.Set, minNewID int64) (unique bool, w Witness) {
	if s.NumRecords() <= 1 {
		return true, Witness{}
	}
	if cols.IsEmpty() {
		// ∅ is unique only for relations with at most one record.
		var a, b int64
		n := 0
		s.ForEachRecord(func(id int64, _ pli.Record) bool {
			if n == 0 {
				a = id
			} else {
				b = id
			}
			n++
			return n < 2
		})
		return false, Witness{A: a, B: b}
	}
	pivot := pickPivot(s, cols)
	if s.NumClusters(pivot) == s.NumRecords() {
		return true, Witness{}
	}
	k := sc.setRest(cols.Without(pivot))
	recs := s.Arena()
	unique = true
	sc.walkClusters(s, pivot, minNewID, func(_ int64, c *pli.Cluster) bool {
		if k == 0 {
			// The whole cluster agrees on cols = {pivot}: any two members
			// collide.
			unique, w = false, Witness{A: c.IDs[0], B: c.IDs[1]}
			return false
		}
		unique, w = sc.uniqueCheckCluster(recs, c.IDs)
		return unique
	})
	return unique, w
}

// FrozenUnique is Unique on a frozen view, without pruning or witness: the
// key check of a published snapshot. It walks the pivot groups of
// pli.Frozen.ForEachGroup, and skips the walk when the pivot's cluster
// count settles the answer: one cluster per record is a key, and a
// single-attribute set with fewer clusters than records is not.
func (sc *Scratch) FrozenUnique(f *pli.Frozen, cols attrset.Set) bool {
	if f.NumRecords() <= 1 {
		return true
	}
	if cols.IsEmpty() {
		return false
	}
	pivot := pickPivot(f, cols)
	if f.NumClusters(pivot) == f.NumRecords() {
		return true
	}
	if sc.setRest(cols.Without(pivot)) == 0 {
		return false
	}
	recs := f.Arena()
	unique := true
	f.ForEachGroup(pivot, &sc.groups, func(ids []int64) bool {
		unique, _ = sc.uniqueCheckCluster(recs, ids)
		return unique
	})
	return unique
}

// uniqueCheckCluster probes the rest tuples of one pivot group; any
// repeated tuple is a collision.
func (sc *Scratch) uniqueCheckCluster(recs pli.Arena, ids []int64) (bool, Witness) {
	slots := sc.table(tableSize(len(ids)))
	mask := uint32(len(slots) - 1)
	sc.keys, sc.rep = sc.keys[:0], sc.rep[:0]
	single := len(sc.rest) == 1
	restAttr := sc.rest[0]
	for _, id := range ids {
		rec := recs.Rec(id)
		var slot uint32
		if single {
			slot = hash1(rec[restAttr]) & mask
		} else {
			slot = sc.hashRest(rec) & mask
		}
		for {
			g := slots[slot]
			if g == 0 {
				slots[slot] = int32(len(sc.rep)) + 1
				if single {
					sc.keys = append(sc.keys, rec[restAttr])
				} else {
					for _, a := range sc.rest {
						sc.keys = append(sc.keys, rec[a])
					}
				}
				sc.rep = append(sc.rep, id)
				break
			}
			gi := g - 1
			if single && sc.keys[gi] == rec[restAttr] || !single && sc.keyEqual(gi, rec) {
				return false, Witness{A: sc.rep[gi], B: id}
			}
			slot = (slot + 1) & mask
		}
	}
	return true, Witness{}
}

// Violations collects the violation groups of lhs → rhs using the
// scratch's buffers; it is the low-allocation form of the package-level
// Violations function. With a warm scratch it allocates only the returned
// groups — their headers and one backing array for their ids — and a
// valid FD inspects with zero allocations (pinned by TestViolationsAllocs).
func (sc *Scratch) Violations(s *pli.Store, lhs attrset.Set, rhs int, max int) (groups []ViolationGroup, g3 float64) {
	n := s.NumRecords()
	if n <= 1 {
		return nil, 0
	}
	recs := s.Arena()
	sc.startViolations()
	if lhs.IsEmpty() {
		sc.newIDs = s.AppendLiveFrom(sc.newIDs[:0], 0)
		sc.violationsCluster(recs, sc.newIDs, rhs)
	} else {
		pivot := pickPivot(s, lhs)
		sc.setRest(lhs.Without(pivot))
		sc.walkClusters(s, pivot, NoPruning, func(_ int64, c *pli.Cluster) bool {
			sc.violationsCluster(recs, c.IDs, rhs)
			return true
		})
	}
	return sc.violationGroups(max), float64(sc.removals) / float64(n)
}

// FrozenViolations is Violations on a frozen view: the violation query of
// a published snapshot, over the pivot groups of pli.Frozen.ForEachGroup.
// Its groups and g3 equal Violations on the live store at the freeze
// instant.
func (sc *Scratch) FrozenViolations(f *pli.Frozen, lhs attrset.Set, rhs int, max int) (groups []ViolationGroup, g3 float64) {
	n := f.NumRecords()
	if n <= 1 {
		return nil, 0
	}
	recs := f.Arena()
	sc.startViolations()
	if lhs.IsEmpty() {
		sc.newIDs = sc.newIDs[:0]
		f.ForEachRecord(func(id int64, _ pli.Record) bool {
			sc.newIDs = append(sc.newIDs, id)
			return true
		})
		sc.violationsCluster(recs, sc.newIDs, rhs)
	} else {
		pivot := pickPivot(f, lhs)
		sc.setRest(lhs.Without(pivot))
		f.ForEachGroup(pivot, &sc.groups, func(ids []int64) bool {
			sc.violationsCluster(recs, ids, rhs)
			return true
		})
	}
	return sc.violationGroups(max), float64(sc.removals) / float64(n)
}

// startViolations clears the recorded groups and the rest attributes; an
// empty Lhs checks the whole relation as one group with no rest.
func (sc *Scratch) startViolations() {
	sc.vids, sc.vspans, sc.removals = sc.vids[:0], sc.vspans[:0], 0
	sc.rest = sc.rest[:0]
}

// violationsCluster records the violation groups of one pivot group.
//
// Pass A assigns every member to a rest-tuple group (same probing as the
// FD kernels, but every member is recorded instead of stopping at the
// first conflict). Pass B counts (group, Rhs value) pairs through a second
// probe over the same table, yielding each group's distinct-Rhs count and
// its plurality count (the g3 numerator). Pass C gives each violating
// group a span of sc.vids and walks the members once more to fill the
// spans; ids are ascending (the pli.Cluster invariant, which
// pli.Frozen.ForEachGroup keeps), so each group's members come out sorted
// without a copy or sort.
func (sc *Scratch) violationsCluster(recs pli.Arena, ids []int64, rhs int) {
	m := len(ids)
	k := len(sc.rest)
	sc.gof = grow32(sc.gof, m)
	sc.rcid = grow32(sc.rcid, m)
	sc.gsize = sc.gsize[:0]

	// Pass A: group membership by rest tuple.
	if k == 0 {
		for pos, id := range ids {
			sc.gof[pos] = 0
			sc.rcid[pos] = recs.Rec(id)[rhs]
		}
		sc.gsize = append(sc.gsize, int32(m))
	} else {
		slots := sc.table(tableSize(m))
		mask := uint32(len(slots) - 1)
		sc.keys = sc.keys[:0]
		single := k == 1
		restAttr := sc.rest[0]
		for pos, id := range ids {
			rec := recs.Rec(id)
			sc.rcid[pos] = rec[rhs]
			var slot uint32
			if single {
				slot = hash1(rec[restAttr]) & mask
			} else {
				slot = sc.hashRest(rec) & mask
			}
			for {
				g := slots[slot]
				if g == 0 {
					gi := int32(len(sc.gsize))
					slots[slot] = gi + 1
					if single {
						sc.keys = append(sc.keys, rec[restAttr])
					} else {
						for _, a := range sc.rest {
							sc.keys = append(sc.keys, rec[a])
						}
					}
					sc.gsize = append(sc.gsize, 1)
					sc.gof[pos] = gi
					break
				}
				gi := g - 1
				if single && sc.keys[gi] == rec[restAttr] || !single && sc.keyEqual(gi, rec) {
					sc.gsize[gi]++
					sc.gof[pos] = gi
					break
				}
				slot = (slot + 1) & mask
			}
		}
	}

	// Pass B: per-group Rhs statistics via (group, rhs cid) pair counting.
	ng := len(sc.gsize)
	sc.gdist = grow32(sc.gdist, ng)
	sc.gmax = grow32(sc.gmax, ng)
	clear(sc.gdist)
	clear(sc.gmax)
	slots := sc.table(tableSize(m))
	mask := uint32(len(slots) - 1)
	sc.pairG, sc.pairR, sc.pairN = sc.pairG[:0], sc.pairR[:0], sc.pairN[:0]
	for pos := 0; pos < m; pos++ {
		g, rc := sc.gof[pos], sc.rcid[pos]
		slot := hash2(g, rc) & mask
		for {
			p := slots[slot]
			if p == 0 {
				slots[slot] = int32(len(sc.pairN)) + 1
				sc.pairG = append(sc.pairG, g)
				sc.pairR = append(sc.pairR, rc)
				sc.pairN = append(sc.pairN, 1)
				sc.gdist[g]++
				if sc.gmax[g] < 1 {
					sc.gmax[g] = 1
				}
				break
			}
			if pi := p - 1; sc.pairG[pi] == g && sc.pairR[pi] == rc {
				sc.pairN[pi]++
				if sc.pairN[pi] > sc.gmax[g] {
					sc.gmax[g] = sc.pairN[pi]
				}
				break
			}
			slot = (slot + 1) & mask
		}
	}

	// Pass C: give each violating group (>= 2 distinct Rhs values) its span
	// of sc.vids, then fill the spans in member order.
	sc.gout = grow32(sc.gout, ng)
	base, total := len(sc.vids), int32(0)
	for g := 0; g < ng; g++ {
		if sc.gdist[g] < 2 {
			sc.gout[g] = -1
			continue
		}
		sc.gout[g] = total
		sc.vspans = append(sc.vspans, span{off: base + int(total), n: int(sc.gsize[g]), rhsValues: int(sc.gdist[g])})
		total += sc.gsize[g]
		sc.removals += int(sc.gsize[g] - sc.gmax[g])
	}
	if total == 0 {
		return
	}
	sc.vids = slices.Grow(sc.vids, int(total))[:base+int(total)]
	for pos, id := range ids {
		if o := sc.gout[sc.gof[pos]]; o >= 0 {
			sc.vids[base+int(o)] = id
			sc.gout[sc.gof[pos]] = o + 1
		}
	}
}

// violationGroups orders the recorded groups deterministically (by first
// record id), applies the caller's cap (max <= 0 keeps all) and copies out
// the groups it keeps: one allocation for their headers and one for their
// ids. Groups originate from distinct Lhs projections, so first ids are
// unique and the order is total.
func (sc *Scratch) violationGroups(max int) []ViolationGroup {
	if len(sc.vspans) == 0 {
		return nil
	}
	for i := range sc.vspans {
		sc.vspans[i].first = sc.vids[sc.vspans[i].off]
	}
	slices.SortFunc(sc.vspans, func(a, b span) int { return cmp.Compare(a.first, b.first) })
	keep := sc.vspans
	if max > 0 && len(keep) > max {
		keep = keep[:max]
	}
	total := 0
	for _, sp := range keep {
		total += sp.n
	}
	ids := make([]int64, total)
	out := make([]ViolationGroup, len(keep))
	for i, sp := range keep {
		copy(ids, sc.vids[sp.off:sp.off+sp.n])
		out[i] = ViolationGroup{IDs: ids[:sp.n:sp.n], RhsValues: sp.rhsValues}
		ids = ids[sp.n:]
	}
	return out
}

// Scratches is a fixed set of per-worker scratches owned by one
// coordinator (the engine). Slot 0 serves the engine goroutine; the
// scheduler hands slot w to worker w, so scratches are never shared
// between goroutines.
type Scratches struct {
	per []*Scratch
}

// Ensure grows the set to at least n scratches. It must run on the
// coordinator's goroutine before any concurrent At calls — the engine
// calls it once per session begin with the pool's worker count, so chunk
// tasks can call At(worker) from any slot without synchronization.
func (p *Scratches) Ensure(n int) {
	for len(p.per) < n {
		p.per = append(p.per, NewScratch())
	}
}

// At returns the scratch of worker slot i.
func (p *Scratches) At(i int) *Scratch { return p.per[i] }

// Serial returns the slot-0 scratch used by serial validation call sites.
func (p *Scratches) Serial() *Scratch {
	p.Ensure(1)
	return p.per[0]
}

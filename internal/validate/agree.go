// Per-batch agree-mask index (DESIGN.md §9).
//
// Cluster pruning rests on one fact: after an insert batch, a violation of
// a previously valid FD must involve a new record r and a partner s in r's
// pivot cluster. The pruned kernel re-derives such pairs per candidate by
// rescanning the pivot clusters of the new records, so a batch that
// re-validates ~90 candidates rescans the same clusters ~90 times. The
// index instead compares each such pair once, records its full agree mask
// (the attributes on which r and s hold equal values), and answers every
// later candidate from the distinct masks: X → A is violated by the batch
// iff some indexed mask m has X ⊆ m and A ∉ m.
//
// Pairs are indexed per built pivot p: for every new record r and every
// member s of r's p-cluster. A pair agreeing on X agrees on every attribute
// of X, so once any attribute of X is built, every pair that could violate
// X → A is indexed. Each pair is compared once: s == r is skipped, a new
// s < r was compared from s's side, and a pair agreeing on an earlier
// built pivot was compared when that pivot was built.
//
// Building p costs Σ_r |c_p(r)| partner visits, which grows quadratically
// when many new records share a large cluster. A candidate none of whose
// attributes is built therefore runs the pruned kernel, and its kernel
// member visits are charged to the attribute of its Lhs that is cheapest
// to build; once an attribute's charges reach its build cost, it is built
// (ski rental), and the validation that reached the cost is answered by
// the index. A build never costs more than the kernel visits charged to
// its attribute, and a skewed column keeps the kernel.
//
// Witnesses are canonical: an invalid candidate reports its violating pair
// (A < B) with the smallest B, then the smallest A. That is the order in
// which the pruned kernel and the single-attribute scan meet violations
// (ascending new record ids), so both stop early, and the index keeps the
// smallest witness per mask. Every path therefore reports the same pair,
// whichever pivots were built, in whichever order, by whichever worker.
package validate

import (
	"math/bits"
	"sync"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// AgreeIndex answers the pruned validations of one insert batch. Open it
// once per batch, after the store holds the whole batch, and leave the
// store unchanged while it is in use. FD may be called from several
// goroutines at once, each with its own Scratch: builds are serialized,
// lookups run concurrently. The zero value is ready to Open; its buffers
// are reused from batch to batch.
type AgreeIndex struct {
	s        *pli.Store
	minNewID int64
	newIDs   []int64 // live ids >= minNewID, ascending; fixed while open

	mu       sync.RWMutex
	built    attrset.Set // pivots whose pairs are indexed
	plans    []pivotPlan // per attribute: build cost and kernel accounting
	masks    []attrset.Set
	wits     []Witness // per mask: its smallest witness (by B, then A)
	slots    []int32   // open-addressing table over masks: index + 1, 0 empty
	builtBuf []int     // build: the previously built pivots
	walk     Scratch   // planning: the kernel's cluster walk
	counters AgreeCounters
}

// pivotPlan is the ski-rental state of one attribute for the batch.
type pivotPlan struct {
	known  bool
	build  int // partner visits to build the attribute: Σ_r |c_p(r)|
	kernel int // member visits of one pruned kernel run with it as pivot
	spent  int // kernel visits charged to it as its Lhs's cheapest build
}

// AgreeCounters are the work counters of one batch's index.
type AgreeCounters struct {
	// Pairs counts the record pairs whose agree mask was computed.
	Pairs int
	// KernelVisits counts the pivot-cluster members the pruned kernel
	// visits, or would visit, for the batch's multi-attribute validations:
	// per validation, the new records plus every member of their pivot
	// clusters. Pairs never exceeds it.
	KernelVisits int
}

// Open resets the index for a batch whose new records are the live ids
// >= minNewID of s.
func (ix *AgreeIndex) Open(s *pli.Store, minNewID int64) {
	ix.s, ix.minNewID = s, minNewID
	ix.newIDs = s.AppendLiveFrom(ix.newIDs[:0], minNewID)
	ix.built = attrset.Set{}
	if cap(ix.plans) < s.NumAttrs() {
		ix.plans = make([]pivotPlan, s.NumAttrs())
	}
	ix.plans = ix.plans[:s.NumAttrs()]
	clear(ix.plans)
	ix.masks, ix.wits = ix.masks[:0], ix.wits[:0]
	clear(ix.slots)
	ix.counters = AgreeCounters{}
}

// Counters returns the work counters since Open. It must not run
// concurrently with FD.
func (ix *AgreeIndex) Counters() AgreeCounters { return ix.counters }

// FD validates lhs → rhs, which must have held on the store without the
// batch's new records (the cluster-pruning precondition, paper §4.2). It
// returns the verdict of full validation and, for an invalid candidate,
// the canonical witness.
func (ix *AgreeIndex) FD(sc *Scratch, lhs attrset.Set, rhs int) (valid bool, w Witness) {
	s := ix.s
	if s.NumRecords() <= 1 {
		return true, Witness{}
	}
	if lhs.IsEmpty() {
		return constantColumn(s, rhs)
	}
	p := pickPivot(s, lhs)
	if lhs.Count() == 1 {
		return ix.single(p, rhs)
	}
	if !ix.route(lhs, p) {
		return sc.FD(s, lhs, rhs, ix.minNewID)
	}
	ix.mu.RLock()
	valid, w = ix.lookup(lhs, rhs)
	ix.mu.RUnlock()
	return valid, w
}

// single answers {p} → rhs in O(new records): before the batch every
// p-cluster agreed on rhs, so the candidate holds iff every new record
// agrees with the first member of its p-cluster. The first new record that
// does not, with that first member, is the canonical witness.
func (ix *AgreeIndex) single(p, rhs int) (bool, Witness) {
	s := ix.s
	pix := s.Index(p)
	for _, r := range ix.newIDs {
		rec := s.Rec(r)
		if f := pix.Cluster(rec[p]).IDs[0]; f != r && s.Rec(f)[rhs] != rec[rhs] {
			return false, Witness{A: f, B: r}
		}
	}
	return true, Witness{}
}

// route charges one validation of lhs, whose kernel pivot is p, and
// reports whether the index answers it: true if an attribute of lhs is
// built or the cheapest attribute of lhs to build is now paid for (it is
// then built), false if the kernel must run.
func (ix *AgreeIndex) route(lhs attrset.Set, p int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	visits := ix.plan(p).kernel
	ix.counters.KernelVisits += visits
	if lhs.Intersects(ix.built) {
		return true
	}
	q := p
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		if ix.plan(a).build < ix.plans[q].build {
			q = a
		}
	}
	pl := &ix.plans[q]
	pl.spent += visits
	if pl.spent < pl.build {
		return false
	}
	ix.build(q)
	return true
}

// plan returns p's build and kernel costs, computing them on first use.
// The kernel cost is the new records plus the members of the clusters the
// pruned kernel's walk visits on pivot p.
func (ix *AgreeIndex) plan(p int) *pivotPlan {
	pl := &ix.plans[p]
	if pl.known {
		return pl
	}
	s := ix.s
	pix := s.Index(p)
	for _, r := range ix.newIDs {
		pl.build += pix.Cluster(s.Rec(r)[p]).Size()
	}
	pl.kernel = len(ix.newIDs)
	ix.walk.walkClusters(s, p, ix.minNewID, func(_ int64, c *pli.Cluster) bool {
		pl.kernel += c.Size()
		return true
	})
	pl.known = true
	return pl
}

// build indexes the pairs of pivot p. The caller holds the write lock.
func (ix *AgreeIndex) build(p int) {
	s := ix.s
	n := s.NumAttrs()
	prev := ix.builtBuf[:0]
	for a := ix.built.First(); a >= 0; a = ix.built.Next(a) {
		prev = append(prev, a)
	}
	ix.builtBuf = prev
	pix := s.Index(p)
	for _, r := range ix.newIDs {
		rr := s.Rec(r)
	partners:
		for _, o := range pix.Cluster(rr[p]).IDs {
			if o == r || o >= ix.minNewID && o < r {
				continue // the pair itself, or compared from o's side
			}
			ro := s.Rec(o)
			for _, q := range prev {
				if rr[q] == ro[q] {
					continue partners // compared when q was built
				}
			}
			var m attrset.Set
			for a := 0; a < n; a++ {
				if rr[a] == ro[a] {
					m[a>>6] |= 1 << uint(a&63)
				}
			}
			w := Witness{A: o, B: r}
			if o > r {
				w = Witness{A: r, B: o}
			}
			ix.addMask(m, w)
			ix.counters.Pairs++
		}
	}
	ix.built = ix.built.With(p)
}

// witnessLess orders witnesses by B, then A.
func witnessLess(a, b Witness) bool {
	return a.B < b.B || a.B == b.B && a.A < b.A
}

// hashMask hashes an agree mask for the mask table.
func hashMask(m attrset.Set) uint32 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range m {
		h = (h ^ w) * hashMul
	}
	return uint32(h>>32) ^ uint32(h)
}

// addMask records the pair w under its agree mask m, keeping the smallest
// witness per distinct mask.
func (ix *AgreeIndex) addMask(m attrset.Set, w Witness) {
	if 2*(len(ix.masks)+1) > len(ix.slots) {
		ix.rehash(max(16, 4*(len(ix.masks)+1)))
	}
	mask := uint32(len(ix.slots) - 1)
	for slot := hashMask(m) & mask; ; slot = (slot + 1) & mask {
		i := ix.slots[slot]
		if i == 0 {
			ix.slots[slot] = int32(len(ix.masks)) + 1
			ix.masks = append(ix.masks, m)
			ix.wits = append(ix.wits, w)
			return
		}
		if ix.masks[i-1] == m {
			if witnessLess(w, ix.wits[i-1]) {
				ix.wits[i-1] = w
			}
			return
		}
	}
}

// rehash grows the mask table to at least n slots (a power of two) and
// reinserts every mask.
func (ix *AgreeIndex) rehash(n int) {
	n = 1 << bits.Len(uint(n-1))
	if cap(ix.slots) < n {
		ix.slots = make([]int32, n)
	}
	ix.slots = ix.slots[:n]
	clear(ix.slots)
	mask := uint32(n - 1)
	for i, m := range ix.masks {
		slot := hashMask(m) & mask
		for ix.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		ix.slots[slot] = int32(i) + 1
	}
}

// lookup answers lhs → rhs from the masks: the candidate is violated iff
// some mask covers lhs and misses rhs; the witness is the smallest over all
// such masks. The caller holds the read lock and has routed lhs.
func (ix *AgreeIndex) lookup(lhs attrset.Set, rhs int) (bool, Witness) {
	valid := true
	var best Witness
	for i, m := range ix.masks {
		if m.Contains(rhs) || !lhs.IsSubsetOf(m) {
			continue
		}
		if valid || witnessLess(ix.wits[i], best) {
			valid, best = false, ix.wits[i]
		}
	}
	return valid, best
}

// Package pli implements DynFD's runtime representation of a relation
// (paper §3.1): one position list index (Pli, also known as a stripped
// partition) per attribute, an inverted value index per attribute that maps
// values to their Pli clusters, dictionary-encoded ("compressed") records,
// and a paged record arena from surrogate record ids to compressed records.
// Each Pli is a paged cluster directory indexed by cluster id (see Index).
// Its inverted index is a table of cluster ids keyed by a seeded hash of
// the value (values.go); a lookup reads the value back from the directory,
// so no value is stored twice.
//
// Unlike the static setting, records are identified by a monotonically
// increasing surrogate key instead of a row number, so the structures stay
// valid while the relation grows and shrinks. All structures are updated
// incrementally on insert and delete, without re-reading the data.
//
// Record arena (DESIGN.md §10): because surrogate ids are dense and
// monotonic, compressed records live in fixed-size pages of a flat []int32
// slab indexed by id — page pages[id>>pageBits], offset (id&pageMask)*
// numAttrs — so the hot-path accessor Rec is two array loads instead of the
// former map[int64]Record probe. Liveness is a per-page bitmap; pages whose
// last record dies are freed, so long-running delete-heavy streams do not
// leak dead slab memory.
//
// Batch maintenance: ApplyBatch applies a whole batch of deletes and
// inserts at once. Per-attribute index updates are independent, so they fan
// out across a bounded worker pool (one worker owns an attribute's Index
// exclusively, no locks), and deletes compact each touched cluster in one
// sweep instead of splicing per record. Insert, InsertWithID, and Delete
// remain as single-element wrappers with their original semantics.
//
// Bulk load: Load fills an empty store from dictionary-coded records (a
// checkpoint's form) and LoadRows from tuples, building each attribute's
// Pli in one pass instead of one ApplyBatch insert per record (load.go).
//
// Deviation from the paper: compressed records store a real cluster id for
// every value, including values that occur only once. The paper's "-1 for
// unique values" trick is an optimization for the static case; in the
// dynamic case a second occurrence of a formerly unique value must locate
// its cluster through the inverted index anyway. Validation obtains the
// same pruning by skipping size-1 pivot clusters (see DESIGN.md §2.3).
package pli

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"dynfd/internal/fanout"
)

// testApplyAttrHook, when set, runs at the start of every per-attribute
// batch application — a test-only injection point that lets failure-path
// tests drive a panicking worker through ApplyBatch's real fan-out.
var testApplyAttrHook atomic.Pointer[func(a int)]

// SetApplyAttrTestHook installs h (nil clears) as the test-only
// per-attribute maintenance hook. Tests that install a hook must clear it
// before returning; production code never sets it.
func SetApplyAttrTestHook(h func(a int)) {
	if h == nil {
		testApplyAttrHook.Store(nil)
		return
	}
	testApplyAttrHook.Store(&h)
}

// Record is a dictionary-encoded tuple: Record[a] is the id of the cluster
// in attribute a's Pli that contains this tuple. It aliases the store's
// record arena and must not be modified by callers.
type Record []int32

// Arena is a read-only view of a record arena: the compressed records of
// the live store (Store.Arena) or of a frozen view (Frozen.Arena). The
// validation kernels take it by value, so they read either arena through
// the same two array loads per record, with no interface call. A view of
// the live store is valid while the store is not mutated.
type Arena struct {
	pages    [][]int32
	numAttrs int
}

// Rec returns the compressed record for id without a liveness check; see
// Store.Rec.
func (ar Arena) Rec(id int64) Record {
	off := int(id&pageMask) * ar.numAttrs
	return ar.pages[id>>pageBits][off : off+ar.numAttrs : off+ar.numAttrs]
}

// Cluster is one equivalence class of a Pli: the ids of all current records
// that share Value in the Pli's attribute.
//
// Invariant: IDs are strictly ascending. Inserts append (surrogate ids grow
// monotonically, so an append preserves the order), single deletes splice,
// and batch deletes compact in place keeping the survivors' order, so the
// order holds at all times; CheckConsistency asserts it. The validation
// kernels in internal/validate rely on this to emit violation-group members
// in record-id order without copying or sorting, and MaxID reads the newest
// member in constant time.
type Cluster struct {
	Value string
	IDs   []int64
}

// Size returns the number of records in the cluster.
func (c *Cluster) Size() int { return len(c.IDs) }

// MaxID returns the largest (newest) record id in the cluster, or -1 if the
// cluster is empty. Because IDs are sorted this is a constant-time lookup.
// (Cluster pruning does not test it per cluster: the validation kernel
// finds the clusters holding new records from the new records themselves,
// via Store.AppendLiveFrom.)
func (c *Cluster) MaxID() int64 {
	if len(c.IDs) == 0 {
		return -1
	}
	return c.IDs[len(c.IDs)-1]
}

// Contains reports whether id is a member of the cluster.
func (c *Cluster) Contains(id int64) bool {
	i := sort.Search(len(c.IDs), func(i int) bool { return c.IDs[i] >= id })
	return i < len(c.IDs) && c.IDs[i] == id
}

// remove deletes id from the cluster and reports whether it was present.
func (c *Cluster) remove(id int64) bool {
	i := sort.Search(len(c.IDs), func(i int) bool { return c.IDs[i] >= id })
	if i >= len(c.IDs) || c.IDs[i] != id {
		return false
	}
	c.IDs = append(c.IDs[:i], c.IDs[i+1:]...)
	return true
}

// Cluster directory page geometry: dirPageSize cluster slots per page.
// 256 slots keep a page at 2 KiB, so a copy-on-write renewal (see
// Index.dirShared) stays cheap and a page empties, and is freed, at a useful
// granularity under value churn.
const (
	dirBits     = 8
	dirPageSize = 1 << dirBits
	dirMask     = dirPageSize - 1
)

// dirDeadShare bounds the dead clusters a shared directory page keeps in
// place: a page is renewed once its pending dead clusters reach
// 1/dirDeadShare of its live ones, so they stay below that share.
const dirDeadShare = 8

// Index is the Pli of a single attribute plus its inverted value index.
//
// Cluster ids are dense and never reused, so the Pli is a cid-indexed
// paged directory: cluster cid sits at
// dir[cid>>dirBits][cid&dirMask]. A nil slot or an empty cluster is a dead
// cluster; a nil page holds no live cluster (never allocated, or freed when
// its last cluster died, as the record arena frees pages). Lookups are two
// array loads and ForEachCluster walks the clusters in ascending cid order.
// The inverted index, values, files every live cluster's cid under its
// value's hash and reads the value from the directory (values.go).
type Index struct {
	dir    [][]*Cluster
	dirN   []int32 // live clusters per directory page
	values valueIndex
	next   int32 // cid horizon: every cid ever minted is below it

	// dirShared[p] marks directory page p as shared with one or more Frozen
	// views (Store.Freeze). A cluster that dies on a shared page stays in
	// its slot, emptied and out of the inverted index, and is counted in
	// dirDead[p] (pending); frozen readers keep the clusters they captured
	// without a clone per death. Once a page's pending clusters reach
	// 1/dirDeadShare of its live ones, kill renews the page: it clones it
	// once, clears the dead slots in the copy and unshares it. Fresh cids
	// are written in place even on a shared page: a fresh cid is at or
	// above every frozen view's horizon, and frozen readers never load a
	// slot at or above their horizon.
	dirShared []bool
	dirDead   []int32 // pending dead clusters per directory page

	// batchCids is the reusable touched-cluster scratch of ApplyBatch.
	// During a batch the owning maintenance worker uses it exclusively.
	batchCids []int32
}

func newIndex() *Index {
	return &Index{values: newValueIndex()}
}

// NumClusters returns the number of distinct values currently present.
func (ix *Index) NumClusters() int { return ix.values.n }

// Horizon returns the cid horizon: every cluster id ever minted, live or
// dead, is below it, so a cid-indexed slice of this length covers them all.
func (ix *Index) Horizon() int32 { return ix.next }

// Cluster returns the cluster with the given id, or nil if it was deleted.
func (ix *Index) Cluster(cid int32) *Cluster {
	p := int(cid >> dirBits)
	if cid < 0 || p >= len(ix.dir) || ix.dir[p] == nil {
		return nil
	}
	if c := ix.dir[p][cid&dirMask]; c != nil && len(c.IDs) > 0 {
		return c
	}
	return nil
}

// ClusterOf returns the cluster id for a value via the inverted index.
func (ix *Index) ClusterOf(value string) (int32, bool) {
	cid, _, ok := ix.values.find(value, ix.values.hash(value), ix.value)
	return cid, ok
}

// value returns the value of cluster cid, which the inverted index names:
// its directory slot holds the cluster.
func (ix *Index) value(cid int32) string { return ix.dir[cid>>dirBits][cid&dirMask].Value }

// ForEachCluster calls fn for every cluster in ascending cluster-id order.
func (ix *Index) ForEachCluster(fn func(cid int32, c *Cluster) bool) {
	for p, page := range ix.dir {
		for i, c := range page {
			if c != nil && len(c.IDs) > 0 && !fn(int32(p<<dirBits|i), c) {
				return
			}
		}
	}
}

// add registers id under value and returns the cluster id used. A new
// value gets a singleton cluster, one allocation with room for id.
func (ix *Index) add(value string, id int64) int32 {
	h := ix.values.hash(value)
	cid, slot, ok := ix.values.find(value, h, ix.value)
	var c *Cluster
	if ok {
		c = ix.dir[cid>>dirBits][cid&dirMask]
	} else {
		cid = ix.next
		ix.next++
		ix.values.put(slot, cid, h)
		c = newSingleton(value)
		ix.setSlot(cid, c)
	}
	c.IDs = append(c.IDs, id) // ids are monotonic, order preserved
	return cid
}

// setSlot stores the new cluster c at the fresh cid, allocating its
// directory page when needed. The write goes in place even when the page is
// shared: cid is at or above every frozen view's horizon.
func (ix *Index) setSlot(cid int32, c *Cluster) {
	p := int(cid >> dirBits)
	for len(ix.dir) <= p {
		ix.dir = append(ix.dir, nil)
		ix.dirN = append(ix.dirN, 0)
		ix.dirShared = append(ix.dirShared, false)
		ix.dirDead = append(ix.dirDead, 0)
	}
	if ix.dir[p] == nil {
		ix.dir[p] = make([]*Cluster, dirPageSize)
		ix.dirShared[p] = false
	}
	ix.dir[p][cid&dirMask] = c
	ix.dirN[p]++
}

// kill deletes the emptied cluster c at cid: its ids and its
// inverted-index entry. A page whose last cluster died is freed (a frozen
// view sharing it keeps its own reference), and an unshared page clears the
// slot. A shared page keeps c in its slot as a pending dead cluster until
// the pending ones reach 1/dirDeadShare of the live ones; then the page is
// renewed.
func (ix *Index) kill(cid int32, c *Cluster) {
	ix.values.remove(cid, ix.values.hash(c.Value))
	c.IDs = nil
	p := int(cid >> dirBits)
	ix.dirN[p]--
	switch {
	case ix.dirN[p] == 0:
		ix.dir[p] = nil
		ix.dirShared[p] = false
		ix.dirDead[p] = 0
	case !ix.dirShared[p]:
		ix.dir[p][cid&dirMask] = nil
	default:
		ix.dirDead[p]++
		if ix.dirDead[p]*dirDeadShare >= ix.dirN[p] {
			ix.renew(p)
		}
	}
}

// renew replaces shared directory page p with a private copy whose dead
// slots are cleared. The frozen views sharing p keep the old page.
func (ix *Index) renew(p int) {
	page := slices.Clone(ix.dir[p])
	for i, c := range page {
		if c != nil && len(c.IDs) == 0 {
			page[i] = nil
		}
	}
	ix.dir[p] = page
	ix.dirShared[p] = false
	ix.dirDead[p] = 0
}

// drop removes id from cluster cid, deleting the cluster when it empties.
func (ix *Index) drop(cid int32, id int64) error {
	c := ix.Cluster(cid)
	if c == nil {
		return fmt.Errorf("pli: cluster %d not found", cid)
	}
	if !c.remove(id) {
		return fmt.Errorf("pli: record %d not in cluster %d", id, cid)
	}
	if c.Size() == 0 {
		ix.kill(cid, c)
	}
	return nil
}

// Record arena page geometry: pageSize records per page. 1024 records keeps
// a page at 4·numAttrs KiB — big enough to amortize allocation and make the
// page directory tiny, small enough that sparse stores (after heavy
// deletes) free memory at a useful granularity.
const (
	pageBits  = 10
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	liveWords = pageSize / 64
)

// shard is one attribute's slice of the store: its Index (Pli + inverted
// value dictionary) plus an epoch counting the staged batches fully applied
// to it. Everything a maintenance worker writes for attribute a — the
// shard's Index and the records' column a in the arena — lives behind this
// per-attribute ownership boundary, so ApplyBatch's per-attribute fan-out
// needs no locks at all: distinct attributes never share mutable state.
type shard struct {
	ix    *Index
	epoch atomic.Uint64 // staged batches fully applied to this shard
}

// Store bundles the per-attribute shards with the record arena. It is the
// single mutable representation of the profiled relation inside DynFD.
//
// Concurrency contract: a Store is safe for any number of concurrent
// readers (Record, Rec, Values, Lookup, AppendLookup, Index and the cluster
// accessors, ForEachRecord, CheckConsistency) as long as no goroutine
// mutates it; Insert, InsertWithID, SetNextID, Delete, and ApplyBatch
// require exclusive access. The engine relies on this reader-only window:
// it applies each batch's structural changes first and only then validates
// candidates, read-only, on the engine goroutine (internal/core,
// pipeline.go). The contract is exercised under the race detector by
// TestStoreConcurrentReaders. ApplyBatch's internal per-attribute fan-out
// never escapes the call.
type Store struct {
	numAttrs int
	shards   []shard

	// staged is the open staged batch (stageBatch..finish), nil otherwise;
	// batchEpoch counts finished staged batches. Outside a staging window
	// every shard epoch equals batchEpoch — skew means a batch was applied
	// to only some shards (e.g. a panicked worker) and CheckConsistency
	// reports it.
	staged     *stagedBatch
	batchEpoch uint64

	// Record arena. pages[p] is a flat slab of pageSize compressed records
	// ((id&pageMask)*numAttrs ints each), nil while no record of the page
	// was ever inserted or after all of its records died. live[p] is the
	// page's liveness bitmap and pageN[p] its live-record count; the three
	// slices always have equal length.
	pages   [][]int32
	live    [][]uint64
	pageN   []int
	numRecs int
	nextID  int64

	// liveShared[p] marks page p's liveness bitmap as shared with one or
	// more Frozen views (Freeze). The next liveness flip clones the bitmap
	// first (copy-on-write), so frozen readers keep seeing the membership
	// they captured. Arena slabs need no such flag: record slots are
	// written exactly once (ids are never reused and a freed page's slab
	// is never resurrected — a new slab is allocated instead), so sharing
	// them is always safe.
	liveShared []bool

	// batchSeen is the reusable duplicate-delete detector of ApplyBatch.
	batchSeen map[int64]struct{}
}

// NewStore returns an empty store for a schema with numAttrs attributes.
func NewStore(numAttrs int) *Store {
	if numAttrs <= 0 {
		panic(fmt.Sprintf("pli: invalid attribute count %d", numAttrs))
	}
	s := &Store{
		numAttrs: numAttrs,
		shards:   make([]shard, numAttrs),
	}
	for a := range s.shards {
		s.shards[a].ix = newIndex()
	}
	return s
}

// NumAttrs returns the schema width.
func (s *Store) NumAttrs() int { return s.numAttrs }

// NumRecords returns the current tuple count.
func (s *Store) NumRecords() int { return s.numRecs }

// NextID returns the surrogate key the next insert will receive.
func (s *Store) NextID() int64 { return s.nextID }

// Index returns the Pli of attribute a.
func (s *Store) Index(a int) *Index { return s.shards[a].ix }

// NumClusters returns attribute a's cluster count, Index(a).NumClusters.
func (s *Store) NumClusters(a int) int { return s.shards[a].ix.NumClusters() }

// Arena returns a view of the record arena, valid until the next mutation.
func (s *Store) Arena() Arena { return Arena{pages: s.pages, numAttrs: s.numAttrs} }

// alive reports whether id is a live record.
func (s *Store) alive(id int64) bool {
	pg := id >> pageBits
	if id < 0 || pg >= int64(len(s.pages)) || s.live[pg] == nil {
		return false
	}
	slot := id & pageMask
	return s.live[pg][slot>>6]&(1<<(slot&63)) != 0
}

// Record returns the compressed record for id. The returned slice aliases
// the record arena and must not be modified.
func (s *Store) Record(id int64) (Record, bool) {
	if !s.alive(id) {
		return nil, false
	}
	return s.Rec(id), true
}

// Rec returns the compressed record for id without a liveness check: two
// array loads into the record arena. It is the hot-path accessor for loops
// that iterate cluster members (which are live by the store invariants);
// calling it with an id that was never inserted, or whose page has been
// freed, panics. The returned slice aliases the arena and must not be
// modified.
func (s *Store) Rec(id int64) Record {
	off := int(id&pageMask) * s.numAttrs
	return s.pages[id>>pageBits][off : off+s.numAttrs : off+s.numAttrs]
}

// ForEachRecord calls fn for every live record in ascending id order. (The
// ordering is a guarantee, unlike the old hash-index iteration: the
// empty-Lhs validation paths rely on it to emit record ids sorted without
// copying.)
func (s *Store) ForEachRecord(fn func(id int64, rec Record) bool) {
	for pg, bm := range s.live {
		if bm == nil {
			continue
		}
		base := int64(pg) << pageBits
		for w, word := range bm {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				id := base + int64(w<<6+b)
				if !fn(id, s.Rec(id)) {
					return
				}
			}
		}
	}
}

// AppendLiveFrom appends the ids of all live records with id >= from to dst
// in ascending order and returns the extended slice. It walks the liveness
// bitmaps from from's page on, so the cost follows the id range [from, end
// of arena), not the store size. From a batch's first new id it returns
// the batch's surviving new records (ApplyBatch flips liveness before it
// maintains a shard, so this holds inside the staging window too); ids
// born and deleted within one batch never become live and never appear. A
// from beyond every allocated page yields dst unchanged.
func (s *Store) AppendLiveFrom(dst []int64, from int64) []int64 {
	if from < 0 {
		from = 0
	}
	for pg := from >> pageBits; pg < int64(len(s.live)); pg++ {
		base := pg << pageBits
		for w, word := range s.live[pg] {
			lo := base + int64(w<<6)
			if lo+64 <= from {
				continue
			}
			if lo < from {
				word &^= 1<<uint(from-lo) - 1
			}
			for word != 0 {
				dst = append(dst, lo+int64(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	return dst
}

// ensurePage makes the arena page holding id available for writing and
// returns its index.
func (s *Store) ensurePage(id int64) int64 {
	pg := id >> pageBits
	for int64(len(s.pages)) <= pg {
		s.pages = append(s.pages, nil)
		s.live = append(s.live, nil)
		s.pageN = append(s.pageN, 0)
		s.liveShared = append(s.liveShared, false)
	}
	if s.pages[pg] == nil {
		s.pages[pg] = make([]int32, pageSize*s.numAttrs)
		s.live[pg] = make([]uint64, liveWords)
		s.liveShared[pg] = false
	}
	return pg
}

// mutableLive returns page pg's liveness bitmap for writing, cloning it
// first when a Frozen view still shares it.
func (s *Store) mutableLive(pg int64) []uint64 {
	if s.liveShared[pg] {
		s.live[pg] = append([]uint64(nil), s.live[pg]...)
		s.liveShared[pg] = false
	}
	return s.live[pg]
}

// setLive marks id live and updates the record counters.
func (s *Store) setLive(id int64) {
	pg := s.ensurePage(id)
	slot := id & pageMask
	s.mutableLive(pg)[slot>>6] |= 1 << (slot & 63)
	s.pageN[pg]++
	s.numRecs++
}

// clearLive marks id dead and updates the record counters. The page is not
// freed here: batch maintenance still reads the dead record's cluster ids.
func (s *Store) clearLive(id int64) {
	pg := id >> pageBits
	slot := id & pageMask
	s.mutableLive(pg)[slot>>6] &^= 1 << (slot & 63)
	s.pageN[pg]--
	s.numRecs--
}

// freePageIfEmpty releases the slab and bitmap of id's page when its last
// record died, so delete-heavy streams return arena memory.
func (s *Store) freePageIfEmpty(id int64) {
	pg := id >> pageBits
	if s.pageN[pg] == 0 {
		s.pages[pg] = nil
		s.live[pg] = nil
		s.liveShared[pg] = false
	}
}

// insertOne writes one record into the arena and all per-attribute indexes.
// The caller has validated the arity and the id.
func (s *Store) insertOne(id int64, values []string) {
	s.setLive(id)
	rec := s.Rec(id)
	for a, v := range values {
		rec[a] = s.shards[a].ix.add(v, id)
	}
}

// Insert adds a tuple and returns its surrogate id. For every attribute the
// record id is appended to the value's cluster (creating the cluster if the
// value is new), and the resulting cluster-id vector becomes the compressed
// record, stored in the arena.
func (s *Store) Insert(values []string) (int64, error) {
	if s.staged != nil {
		return 0, errStagedOpen
	}
	if len(values) != s.numAttrs {
		return 0, fmt.Errorf("pli: insert has %d values, schema has %d attributes",
			len(values), s.numAttrs)
	}
	id := s.nextID
	s.nextID++
	s.insertOne(id, values)
	return id, nil
}

// InsertWithID adds a tuple under a caller-chosen surrogate id, used to
// restore persisted stores. Ids must arrive in strictly ascending order
// (they are, in a store dump) so cluster id lists stay sorted; the next
// automatic id becomes id+1.
func (s *Store) InsertWithID(id int64, values []string) error {
	if s.staged != nil {
		return errStagedOpen
	}
	if id < s.nextID {
		return fmt.Errorf("pli: restore id %d not ascending (next %d)", id, s.nextID)
	}
	if len(values) != s.numAttrs {
		return fmt.Errorf("pli: insert has %d values, schema has %d attributes",
			len(values), s.numAttrs)
	}
	s.nextID = id + 1
	s.insertOne(id, values)
	return nil
}

// SetNextID raises the next automatic surrogate id, used to restore stores
// whose newest records had been deleted before the dump.
func (s *Store) SetNextID(next int64) error {
	if s.staged != nil {
		return errStagedOpen
	}
	if next < s.nextID {
		return fmt.Errorf("pli: next id %d below current %d", next, s.nextID)
	}
	s.nextID = next
	return nil
}

// Delete removes the tuple with the given surrogate id from all Plis, the
// inverted indexes (when a cluster empties), and the record arena.
func (s *Store) Delete(id int64) error {
	if s.staged != nil {
		return errStagedOpen
	}
	if !s.alive(id) {
		return fmt.Errorf("pli: record %d not found", id)
	}
	rec := s.Rec(id)
	for a, cid := range rec {
		if err := s.shards[a].ix.drop(cid, id); err != nil {
			return fmt.Errorf("pli: deleting record %d attribute %d: %w", id, a, err)
		}
	}
	s.clearLive(id)
	s.freePageIfEmpty(id)
	return nil
}

// BatchInsert is one tuple of an ApplyBatch call with its pre-assigned
// surrogate id.
type BatchInsert struct {
	ID     int64
	Values []string
}

// ApplyBatch applies a batch of structural changes at once: first all
// deletes, then all inserts (the engine's batch planner has already reduced
// a mixed change stream to this normal form). It is semantically equivalent
// to calling Delete for every id in deletes followed by InsertWithID for
// every insert, but restructures the work for batch efficiency
// (DESIGN.md §10):
//
//   - deletes are marked in the arena's liveness bitmap first, then every
//     touched cluster is compacted in ONE sweep that drops all of its dead
//     members — O(touched clusters) sweeps instead of O(deletes × cluster
//     size) per-record splices;
//   - per-attribute index updates are independent, so they fan out across
//     at most GOMAXPROCS goroutines (fanout.ForEach; inline at
//     GOMAXPROCS 1): the call for attribute a owns a's Index and the
//     records' column a exclusively, so no locks are needed and the
//     resulting store is bit-identical to a serial application at any
//     GOMAXPROCS.
//
// Insert ids must be strictly ascending and >= NextID; afterwards NextID is
// one past the last insert. Validation happens up front: on a validation
// error the store is unchanged. A panic in a fanned-out worker is captured
// and returned as a *fanout.PanicError-wrapped error instead; the store is
// then possibly inconsistent (the staged batch stays open, so further
// mutators are rejected) and must not be used further. The three steps
// behind the fan-out are in staged.go.
func (s *Store) ApplyBatch(deletes []int64, inserts []BatchInsert) error {
	if err := s.stageBatch(deletes, inserts); err != nil {
		return err
	}
	if err := fanout.ForEach(s.numAttrs, func(a int) { s.runAttr(a) }); err != nil {
		// A panicking worker leaves an unknown subset of the per-attribute
		// shards updated; the store is inconsistent and the caller must
		// stop using it (core.Engine poisons itself on this error).
		return fmt.Errorf("pli: applying batch: %w", err)
	}
	return s.finish()
}

// applyAttr applies one batch's deletes and inserts to attribute a:
// compaction of the touched clusters first, then appends for the inserts
// (insert ids exceed all existing ids, so appending after compaction keeps
// cluster id lists strictly ascending).
func (s *Store) applyAttr(a int, deletes []int64, inserts []BatchInsert) {
	if h := testApplyAttrHook.Load(); h != nil {
		(*h)(a)
	}
	ix := s.shards[a].ix
	if len(deletes) > 0 {
		// Collect the touched cluster ids, dedupe, and compact each once.
		cids := ix.batchCids[:0]
		for _, id := range deletes {
			cids = append(cids, s.Rec(id)[a])
		}
		slices.Sort(cids)
		prev := int32(-1)
		for _, cid := range cids {
			if cid == prev {
				continue
			}
			prev = cid
			s.compactCluster(ix, cid)
		}
		ix.batchCids = cids[:0]
	}
	for _, ins := range inserts {
		s.Rec(ins.ID)[a] = ix.add(ins.Values[a], ins.ID)
	}
}

// compactCluster removes all dead members of cluster cid in one in-place
// sweep, deleting the cluster (and its inverted-index entry) when it
// empties. Survivor order is preserved, so the strictly-ascending IDs
// invariant holds.
func (s *Store) compactCluster(ix *Index, cid int32) {
	c := ix.dir[cid>>dirBits][cid&dirMask]
	kept := c.IDs[:0]
	for _, id := range c.IDs {
		if s.alive(id) {
			kept = append(kept, id)
		}
	}
	if len(kept) == 0 {
		ix.kill(cid, c)
		return
	}
	c.IDs = kept
}

// Values reconstructs the original string tuple of a record from its
// clusters' values.
func (s *Store) Values(id int64) ([]string, bool) {
	rec, ok := s.Record(id)
	if !ok {
		return nil, false
	}
	out := make([]string, s.numAttrs)
	for a, cid := range rec {
		c := s.shards[a].ix.Cluster(cid)
		if c == nil {
			return nil, false
		}
		out[a] = c.Value
	}
	return out, true
}

// Lookup returns the ids of all records whose values equal the given tuple,
// in ascending order. It is AppendLookup into a fresh slice; hot callers
// use AppendLookup with a reused buffer to avoid the allocation.
func (s *Store) Lookup(values []string) ([]int64, error) {
	out, err := s.AppendLookup(nil, values)
	if err != nil || len(out) == 0 {
		return nil, err
	}
	return out, nil
}

// AppendLookup appends the ids of all records whose values equal the given
// tuple to dst, in ascending order, and returns the extended slice. It
// seeds the candidate set from the smallest matching cluster and filters it
// per attribute in place, so the cost is proportional to the smallest
// cluster and — given capacity in dst — the call performs no allocations.
// Like the other read accessors it is safe for concurrent readers: all
// working state lives in dst.
func (s *Store) AppendLookup(dst []int64, values []string) ([]int64, error) {
	if len(values) != s.numAttrs {
		return dst, fmt.Errorf("pli: lookup has %d values, schema has %d attributes",
			len(values), s.numAttrs)
	}
	var buf [16]int32
	cids := buf[:0] // the values' cluster ids, on the stack up to 16 attributes
	smallest, smallestAttr := -1, -1
	for a, v := range values {
		cid, ok := s.shards[a].ix.ClusterOf(v)
		if !ok {
			return dst, nil
		}
		cids = append(cids, cid)
		size := s.shards[a].ix.Cluster(cid).Size()
		if smallest < 0 || size < smallest {
			smallest, smallestAttr = size, a
		}
	}
	base := len(dst)
	dst = append(dst, s.shards[smallestAttr].ix.Cluster(cids[smallestAttr]).IDs...)
	for a, cid := range cids {
		if a == smallestAttr {
			continue
		}
		kept := dst[base:base]
		for _, id := range dst[base:] {
			if s.Rec(id)[a] == cid {
				kept = append(kept, id)
			}
		}
		dst = dst[:base+len(kept)]
		if len(kept) == 0 {
			break
		}
	}
	return dst, nil
}

// CheckConsistency verifies the cross-structure invariants: the arena's
// liveness bookkeeping (page counts, record total, id horizon, freed empty
// pages), the sharded layout (one shard per attribute, all shard epochs
// caught up to the finished-batch count — skew means a staged batch reached
// only some shards), each cluster directory's bookkeeping (see checkIndex),
// every cluster is sorted, non-empty, inversely indexed, and contains
// exactly live records that point back at it, and every live record appears
// in exactly the clusters its compressed record names. It is
// used by tests and failure-injection suites; it runs in O(data) time.
// A store with an open staged batch is mid-mutation by definition and is
// reported as inconsistent.
func (s *Store) CheckConsistency() error {
	if s.staged != nil {
		return errStagedOpen
	}
	if len(s.shards) != s.numAttrs {
		return fmt.Errorf("pli: %d shards for %d attributes", len(s.shards), s.numAttrs)
	}
	for a := range s.shards {
		if got := s.shards[a].epoch.Load(); got != s.batchEpoch {
			return fmt.Errorf("pli: shard %d epoch %d skewed from batch epoch %d (partially applied batch)",
				a, got, s.batchEpoch)
		}
	}
	// Arena invariants next: the cluster checks below resolve records
	// through the liveness bitmap.
	if len(s.pages) != len(s.live) || len(s.pages) != len(s.pageN) || len(s.pages) != len(s.liveShared) {
		return fmt.Errorf("pli: arena directory skewed: %d pages, %d bitmaps, %d counts, %d share flags",
			len(s.pages), len(s.live), len(s.pageN), len(s.liveShared))
	}
	total := 0
	for pg := range s.pages {
		if (s.pages[pg] == nil) != (s.live[pg] == nil) {
			return fmt.Errorf("pli: page %d slab/bitmap allocation mismatch", pg)
		}
		if s.pages[pg] == nil {
			if s.pageN[pg] != 0 {
				return fmt.Errorf("pli: freed page %d has live count %d", pg, s.pageN[pg])
			}
			continue
		}
		n := 0
		for w, word := range s.live[pg] {
			n += bits.OnesCount64(word)
			if word != 0 {
				top := int64(pg)<<pageBits + int64(w<<6+63-bits.LeadingZeros64(word))
				if top >= s.nextID {
					return fmt.Errorf("pli: record %d live beyond id horizon %d", top, s.nextID)
				}
			}
		}
		if n != s.pageN[pg] {
			return fmt.Errorf("pli: page %d live count %d, bitmap has %d", pg, s.pageN[pg], n)
		}
		if n == 0 {
			return fmt.Errorf("pli: empty page %d not freed", pg)
		}
		total += n
	}
	if total != s.numRecs {
		return fmt.Errorf("pli: record count %d, pages hold %d", s.numRecs, total)
	}
	for a := range s.shards {
		if err := s.checkIndex(a); err != nil {
			return err
		}
	}
	var err error
	s.ForEachRecord(func(id int64, rec Record) bool {
		for a, cid := range rec {
			c := s.shards[a].ix.Cluster(cid)
			if c == nil || !c.Contains(id) {
				err = fmt.Errorf("pli: record %d missing from attr %d cluster %d", id, a, cid)
				return false
			}
		}
		return true
	})
	return err
}

// checkIndex verifies attribute a's cluster directory, clusters and
// inverted index: the directory slices have equal length, every page has
// dirPageSize slots and its live count matches its live slots, no empty
// page stays allocated, every slot's cluster sits at its own cid below the
// cid horizon, and every live cluster is strictly ascending and holds only
// live records whose compressed record points back at it. An empty cluster
// is a pending dead one: counted in its page's pending count, on a shared
// page only, and below 1/dirDeadShare of the page's live clusters.
// (CheckConsistency's record sweep finds any record naming one.) The
// inverted index counts its occupied slots, every one names a live cluster
// below the cid horizon, a lookup of every live cluster's value from its
// home slot finds the cluster — so no probe chain is broken — and the live
// clusters total its count. Together the last two mean every entry is one
// that a lookup found, filed under the hash of its cluster's value.
func (s *Store) checkIndex(a int) error {
	ix := s.shards[a].ix
	if len(ix.dir) != len(ix.dirN) || len(ix.dir) != len(ix.dirShared) || len(ix.dir) != len(ix.dirDead) {
		return fmt.Errorf("pli: attr %d cluster directory skewed: %d pages, %d counts, %d share flags, %d pending counts",
			a, len(ix.dir), len(ix.dirN), len(ix.dirShared), len(ix.dirDead))
	}
	if err := ix.checkValueSlots(a); err != nil {
		return err
	}
	total := 0
	for p, page := range ix.dir {
		if page == nil {
			if ix.dirN[p] != 0 || ix.dirDead[p] != 0 {
				return fmt.Errorf("pli: attr %d freed directory page %d has live count %d, pending count %d",
					a, p, ix.dirN[p], ix.dirDead[p])
			}
			continue
		}
		if len(page) != dirPageSize {
			return fmt.Errorf("pli: attr %d directory page %d has %d slots", a, p, len(page))
		}
		n, dead := 0, 0
		for i, c := range page {
			if c == nil {
				continue
			}
			cid := int32(p<<dirBits | i)
			if cid >= ix.next {
				return fmt.Errorf("pli: attr %d cluster %d beyond cid horizon %d", a, cid, ix.next)
			}
			if c.Size() == 0 {
				dead++
				continue
			}
			n++
			h := ix.values.hash(c.Value)
			if got, _, ok := ix.values.find(c.Value, h, ix.value); !ok {
				return fmt.Errorf("pli: attr %d slot %d holds value %q, inverted index %s",
					a, cid, c.Value, ix.values.diagnose(cid, h))
			} else if got != cid {
				return fmt.Errorf("pli: attr %d slot %d holds value %q, inverted index has %d", a, cid, c.Value, got)
			}
			for j, id := range c.IDs {
				if j > 0 && c.IDs[j-1] >= id {
					return fmt.Errorf("pli: attr %d cluster %d ids not strictly ascending", a, cid)
				}
				if !s.alive(id) {
					return fmt.Errorf("pli: attr %d cluster %d contains dangling record %d", a, cid, id)
				}
				if s.Rec(id)[a] != cid {
					return fmt.Errorf("pli: record %d attr %d points to cluster %d, found in %d", id, a, s.Rec(id)[a], cid)
				}
			}
		}
		if n != int(ix.dirN[p]) {
			return fmt.Errorf("pli: attr %d directory page %d live count %d, slots hold %d", a, p, ix.dirN[p], n)
		}
		if n == 0 {
			return fmt.Errorf("pli: attr %d empty directory page %d not freed", a, p)
		}
		if dead != int(ix.dirDead[p]) {
			return fmt.Errorf("pli: attr %d directory page %d pending count %d, slots hold %d dead clusters",
				a, p, ix.dirDead[p], dead)
		}
		if dead > 0 && !ix.dirShared[p] {
			return fmt.Errorf("pli: attr %d unshared directory page %d keeps %d dead clusters", a, p, dead)
		}
		if dead*dirDeadShare >= n {
			return fmt.Errorf("pli: attr %d directory page %d keeps %d dead clusters for %d live, want under 1/%d",
				a, p, dead, n, dirDeadShare)
		}
		total += n
	}
	if total != ix.values.n {
		return fmt.Errorf("pli: attr %d directory holds %d live clusters, inverted index %d values",
			a, total, ix.values.n)
	}
	return nil
}

// checkValueSlots verifies that the inverted index's count matches its
// occupied slots, within 3/4 load, and that every occupied slot names a
// live cluster below the cid horizon, so the lookups that checkIndex runs
// next read only clusters the directory holds and end at an empty slot.
func (ix *Index) checkValueSlots(a int) error {
	occupied := 0
	for i, sl := range ix.values.slots {
		if sl == 0 {
			continue
		}
		occupied++
		cid := slotCid(sl)
		switch {
		case cid < 0:
			return fmt.Errorf("pli: attr %d inverted index slot %d holds no cluster id", a, i)
		case cid >= ix.next:
			return fmt.Errorf("pli: attr %d inverted index slot %d names cluster %d beyond cid horizon %d",
				a, i, cid, ix.next)
		case ix.Cluster(cid) != nil:
		case int(cid>>dirBits) < len(ix.dir) && ix.dir[cid>>dirBits] != nil && ix.dir[cid>>dirBits][cid&dirMask] != nil:
			return fmt.Errorf("pli: attr %d cluster %d is empty, but inverted index slot %d names it", a, cid, i)
		default:
			return fmt.Errorf("pli: attr %d inverted index slot %d names cluster %d, which the directory does not hold",
				a, i, cid)
		}
	}
	if occupied != ix.values.n {
		return fmt.Errorf("pli: attr %d inverted index counts %d values in %d occupied slots", a, ix.values.n, occupied)
	}
	if 4*occupied > 3*len(ix.values.slots) {
		return fmt.Errorf("pli: attr %d inverted index holds %d values in %d slots, over 3/4 load",
			a, occupied, len(ix.values.slots))
	}
	return nil
}

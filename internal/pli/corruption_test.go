package pli

import (
	"strings"
	"testing"
)

// These tests tamper with the store's internals and assert that
// CheckConsistency pinpoints each class of corruption — the checker is
// what the engine's invariant tests and the snapshot loader lean on.

func corruptibleStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(2)
	for _, row := range [][]string{{"a", "1"}, {"a", "2"}, {"b", "1"}} {
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	return s
}

// fileValue files cid under value's hash in ix's inverted index at the
// first empty slot of the value's probe chain, counting the entry.
func fileValue(ix *Index, value string, cid int32) {
	h := ix.values.hash(value)
	ix.values.slots[ix.values.emptySlot(h)] = valueSlot(cid, h)
	ix.values.n++
}

// unfileValue removes value's entry from ix's inverted index.
func unfileValue(t *testing.T, ix *Index, value string) {
	t.Helper()
	cid, ok := ix.ClusterOf(value)
	if !ok {
		t.Fatalf("precondition: %q not in the inverted index", value)
	}
	ix.values.remove(cid, ix.values.hash(value))
}

// valueSlotOf returns the slot of ix's inverted index that files value.
func valueSlotOf(t *testing.T, ix *Index, value string) int {
	t.Helper()
	_, slot, ok := ix.values.find(value, ix.values.hash(value), ix.value)
	if !ok {
		t.Fatalf("precondition: %q not in the inverted index", value)
	}
	return slot
}

func TestDetectsDanglingClusterMember(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Add a ghost id to a cluster without a backing record.
	cid, _ := s.Index(0).ClusterOf("a")
	c := s.Index(0).Cluster(cid)
	c.IDs = append(c.IDs, 999)
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsUnsortedCluster(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	cid, _ := s.Index(0).ClusterOf("a")
	c := s.Index(0).Cluster(cid)
	c.IDs[0], c.IDs[1] = c.IDs[1], c.IDs[0]
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsWrongClusterPointer(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	rec, _ := s.Record(0)
	rec[0] = rec[0] + 100 // point at a non-existent cluster
	if err := s.CheckConsistency(); err == nil {
		t.Error("wrong cluster pointer not detected")
	}
}

func TestDetectsInvertedIndexDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	ix := s.Index(1)
	// Rename a value in the inverted index so it no longer matches its
	// cluster's Value.
	cid, _ := ix.ClusterOf("1")
	unfileValue(t, ix, "1")
	fileValue(ix, "ghost", cid)
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "inverted") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsEmptyCluster(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	ix := s.Index(0)
	cid, _ := ix.ClusterOf("b")
	ix.Cluster(cid).IDs = nil
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

// Arity drift is structurally impossible in the paged arena (records are
// fixed-width slab rows), so the former arity checks are replaced by the
// arena bookkeeping invariants below.

func TestDetectsPageLiveCountDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	s.pageN[0]++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "live count") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsRecordCountDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	s.numRecs++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "record count") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsLiveBitBeyondHorizon(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Resurrect a slot past nextID and patch the counters so only the
	// horizon check can catch it.
	slot := s.nextID + 5
	s.live[0][slot>>6] |= 1 << (slot & 63)
	s.pageN[0]++
	s.numRecs++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsUnfreedEmptyPage(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Kill all live bits but keep the slab allocated: an empty page must
	// have been freed by Delete/ApplyBatch.
	n := s.pageN[0]
	clear(s.live[0])
	s.pageN[0] = 0
	s.numRecs -= n
	for a := range s.shards {
		ix := s.shards[a].ix
		ix.dir, ix.dirN, ix.dirShared, ix.dirDead = nil, nil, nil, nil
		ix.values = newValueIndex()
	}
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "not freed") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsDeadClusterMember(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Tombstone a record in the arena without removing it from its
	// clusters: the membership sweep must flag the dead member.
	slot := int64(0)
	s.live[0][slot>>6] &^= 1 << (slot & 63)
	s.pageN[0]--
	s.numRecs--
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

// The cluster directory invariants: one corruption per invariant.

func TestDetectsDirectoryLiveCountDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	s.Index(0).dirN[0]++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "directory page 0 live count") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsUnfreedEmptyDirectoryPage(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// An allocated page with no live cluster must have been freed when its
	// last cluster died.
	ix := s.Index(0)
	ix.dir = append(ix.dir, make([]*Cluster, dirPageSize))
	ix.dirN = append(ix.dirN, 0)
	ix.dirShared = append(ix.dirShared, false)
	ix.dirDead = append(ix.dirDead, 0)
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "empty directory page 1 not freed") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsDirectoryTotalDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// A second entry for a value, behind the first on its probe chain:
	// every slot names a live cluster and every lookup finds its cluster,
	// only the total gives it away.
	fileValue(s.Index(0), "a", 0)
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "live clusters") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsClusterInWrongSlot(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Swap two clusters' slots: counts and the total still match, but each
	// slot now holds a cluster the inverted index places elsewhere.
	ix := s.Index(0)
	page := ix.dir[0]
	page[0], page[1] = page[1], page[0]
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "slot 0 holds value") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsClusterBeyondCidHorizon(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Move a cluster to a slot no cid was minted for, keeping the inverted
	// index and counts in step.
	ix := s.Index(0)
	cid, _ := ix.ClusterOf("b")
	c := ix.Cluster(cid)
	unfileValue(t, ix, "b")
	ix.dir[0][cid], ix.dir[0][ix.next] = nil, c
	fileValue(ix, "b", ix.next)
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "beyond cid horizon") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

// The inverted index's probe-chain invariants.

func TestDetectsStaleValueHash(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Flip a bit of the hash an entry is filed under, leaving it in its
	// slot: the slot still names a live cluster and the count matches, but
	// a lookup of the value no longer matches the entry.
	ix := s.Index(0)
	ix.values.slots[valueSlotOf(t, ix, "b")] ^= 1
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), `slot 1 holds value "b", inverted index files it`) ||
		!strings.Contains(err.Error(), "under stale hash") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsHoleInProbeChain(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Move an entry one slot on, to an empty slot, leaving its old slot
	// empty: the entry and its hash are intact, but the lookup from its
	// home slot stops at the hole.
	ix := s.Index(1)
	slots := ix.values.slots
	mask := len(slots) - 1
	for i := range slots {
		if j := (i + 1) & mask; slots[i] != 0 && slots[j] == 0 {
			slots[i], slots[j] = 0, slots[i]
			break
		}
	}
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "past a hole") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsOverloadedValueIndex(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Fill every slot with entries for "a": each names a live cluster and
	// the count matches the slots, but no empty slot is left to end a
	// lookup, so the check must stop before it looks anything up.
	ix := s.Index(0)
	for ix.values.n < len(ix.values.slots) {
		fileValue(ix, "a", 0)
	}
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "over 3/4 load") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

// The pending dead-cluster invariants of a shared directory page.

// pendingStore returns a consistent store whose only directory page is
// shared with a frozen view and keeps one pending dead cluster (cid 0)
// beside nine live ones.
func pendingStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(1)
	for i := 0; i < 10; i++ {
		if _, err := s.Insert([]string{string(rune('a' + i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	ix := s.Index(0)
	if c := ix.dir[0][0]; c == nil || c.Size() != 0 || ix.dirDead[0] != 1 {
		t.Fatalf("precondition: slot 0 %v, pending %d", c, ix.dirDead[0])
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	return s
}

func TestDetectsPendingCountDrift(t *testing.T) {
	t.Parallel()
	s := pendingStore(t)
	s.Index(0).dirDead[0]++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "pending count 2, slots hold 1 dead") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsPendingClusterInInvertedIndex(t *testing.T) {
	t.Parallel()
	s := pendingStore(t)
	// The dead cluster's value still maps to it: it is an empty live
	// cluster, not a pending one.
	fileValue(s.Index(0), "a", 0)
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "cluster 0 is empty") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsRecordNamingPendingCluster(t *testing.T) {
	t.Parallel()
	s := pendingStore(t)
	// Move record 1 from its own cluster into the dead one: record and
	// clusters disagree.
	s.Rec(1)[0] = 0
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "record 1 attr 0 points to cluster 0") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsPendingOnUnsharedPage(t *testing.T) {
	t.Parallel()
	s := pendingStore(t)
	// Only a page a frozen view shares may keep a dead cluster: an
	// unshared one clears the slot.
	s.Index(0).dirShared[0] = false
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "unshared directory page 0 keeps 1 dead") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsPendingPastShare(t *testing.T) {
	t.Parallel()
	s := pendingStore(t)
	// Kill a second cluster while the page is briefly unshared, so it is
	// cleared in place and no renewal runs: one pending cluster is left
	// beside eight live ones, which is 1/8.
	ix := s.Index(0)
	ix.dirShared[0] = false
	if err := s.Delete(9); err != nil {
		t.Fatal(err)
	}
	ix.dirShared[0] = true
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "keeps 1 dead clusters for 8 live") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

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
	delete(ix.inverted, "1")
	ix.inverted["ghost"] = cid
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
		ix.dir, ix.dirN, ix.dirShared = nil, nil, nil
		ix.inverted = map[string]int32{}
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
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "empty directory page 1 not freed") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsDirectoryTotalDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// A value the inverted index knows but no directory slot holds: every
	// slot still checks out, only the total gives it away.
	s.Index(0).inverted["ghost"] = 0
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
	ix.dir[0][cid], ix.dir[0][ix.next] = nil, c
	ix.inverted["b"] = ix.next
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "beyond cid horizon") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

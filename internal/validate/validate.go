// Package validate implements the Pli-based FD validation primitive shared
// by the static HyFD algorithm and the dynamic DynFD engine (paper §3.1,
// §4.2). Given the Pli store, a candidate Lhs → Rhs is checked by using one
// Lhs attribute's Pli as a pivot index into the compressed records, grouping
// each pivot cluster by the remaining Lhs cluster ids, and probing the Rhs
// cluster ids of each group. The check terminates at the first violation
// and reports the violating record pair as a witness.
//
// The grouping runs on an allocation-free kernel over the int32 cluster-id
// tuples (scratch.go): hot callers hold a reusable Scratch (the engine
// holds one) and hit zero allocations per call; the package-level
// functions below borrow a pooled Scratch for cold call sites.
//
// The dynamic variant adds DynFD's cluster pruning: when only previously
// valid FDs are re-validated after inserts, a violation must involve at
// least one newly inserted record, so only pivot clusters holding such a
// record need checking. Surrogate ids grow monotonically, so the new
// records are exactly the live ids >= minNewID. The kernel enumerates them
// from the store's liveness bitmaps, maps each to its pivot cluster id,
// and checks exactly those clusters, in the order of their first new
// record. The cost follows the batch (new records plus their pivot
// clusters), not the pivot's total cluster count. Unpruned validation walks
// every pivot cluster in ascending cluster-id order, so every witness the
// package reports is a pure function of the store.
//
// An insert batch re-validates many candidates against the same new
// records, so the engine does not call the pruned kernel per candidate: it
// opens an AgreeIndex per batch (agree.go), which compares each new record
// with its pivot-cluster partners once, keeps the distinct agree masks of
// those pairs, and answers every candidate from the masks. A pruned
// validation, by the index or the kernel, reports the canonical witness:
// the violating pair with the smallest B, then the smallest A.
package validate

import (
	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// Witness is a pair of record ids that violates a candidate FD.
type Witness struct {
	A, B int64
}

// NoPruning disables cluster pruning when passed as minNewID.
const NoPruning int64 = -1

// FD validates the candidate lhs → rhs against the store.
//
// If minNewID >= 0, cluster pruning is applied: only pivot clusters that
// contain a record with id >= minNewID are checked. This is sound exactly
// when the candidate was valid before the records with ids >= minNewID
// were inserted (paper §4.2).
//
// On failure it returns valid == false and a violating record pair.
//
// This form borrows a pooled Scratch; hot paths should hold their own and
// call Scratch.FD, which performs zero allocations per call when warm.
func FD(s *pli.Store, lhs attrset.Set, rhs int, minNewID int64) (valid bool, w Witness) {
	sc := scratchPool.Get().(*Scratch)
	valid, w = sc.FD(s, lhs, rhs, minNewID)
	scratchPool.Put(sc)
	return valid, w
}

// constantColumn checks the empty-Lhs candidate ∅ → rhs, which holds iff
// the rhs column is constant over all records.
func constantColumn(s *pli.Store, rhs int) (bool, Witness) {
	ix := s.Index(rhs)
	if ix.NumClusters() <= 1 {
		return true, Witness{}
	}
	// Pick one representative from two different clusters as the witness.
	var a, b int64
	n := 0
	ix.ForEachCluster(func(_ int32, c *pli.Cluster) bool {
		if n == 0 {
			a = c.IDs[0]
		} else {
			b = c.IDs[0]
		}
		n++
		return n < 2
	})
	return false, Witness{A: a, B: b}
}

// pickPivot returns the lhs attribute with the most clusters. More clusters
// mean smaller clusters, hence cheaper grouping and better cluster pruning;
// this implements the "fixed ordering of attributes by their respective Pli
// sizes" of paper §4.2. Ties break to the lowest attribute index — the
// ascending scan only replaces the best on a strictly larger cluster count
// — so the pivot is a pure function of the store, stable across runs
// (TestPickPivotDeterministicTieBreak). So is the reported witness pair:
// the pruned path visits the selected clusters in the order of their first
// new record (TestPrunedWitnessDeterministic), unpruned validation walks the
// pivot's clusters in ascending cluster-id order.
//
// The live store and a frozen view both count clusters, so a snapshot's
// queries pick the pivot the live store would at the freeze instant.
func pickPivot(s clusterCounts, lhs attrset.Set) int {
	best, bestClusters := -1, -1
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		if n := s.NumClusters(a); n > bestClusters {
			best, bestClusters = a, n
		}
	}
	return best
}

// clusterCounts reports each attribute's cluster count: pli.Store and
// pli.Frozen.
type clusterCounts interface {
	NumClusters(a int) int
}

// ViolationGroup is one set of records that agree on a candidate's Lhs but
// carry at least two distinct Rhs values — the concrete evidence an FD
// violation inspection reports.
type ViolationGroup struct {
	// IDs are the records of the group, ascending.
	IDs []int64
	// RhsValues counts the distinct Rhs cluster ids in the group.
	RhsValues int
}

// Violations collects up to max groups of records violating lhs → rhs
// (max <= 0 means all). It also returns the g3 error: the minimum fraction
// of records that must be removed for the FD to hold (Huhtala et al. 1999),
// which is the standard approximate-FD measure. A valid FD yields no
// groups and error 0.
//
// Groups are ordered by their first record id, and each group's IDs are
// ascending — clusters keep their ids sorted (the pli.Cluster invariant),
// so no per-group sort is needed; only the cross-group ordering sorts.
func Violations(s *pli.Store, lhs attrset.Set, rhs int, max int) (groups []ViolationGroup, g3 float64) {
	sc := scratchPool.Get().(*Scratch)
	groups, g3 = sc.Violations(s, lhs, rhs, max)
	scratchPool.Put(sc)
	return groups, g3
}

// FrozenViolations is Violations on a frozen view, with a pooled Scratch.
func FrozenViolations(f *pli.Frozen, lhs attrset.Set, rhs int, max int) (groups []ViolationGroup, g3 float64) {
	sc := scratchPool.Get().(*Scratch)
	groups, g3 = sc.FrozenViolations(f, lhs, rhs, max)
	scratchPool.Put(sc)
	return groups, g3
}

// Unique checks whether the column combination cols is unique: no two
// records agree on all of cols. Like FD it supports cluster pruning via
// minNewID (sound when cols was unique before the records with ids >=
// minNewID arrived) and returns a colliding record pair on failure.
//
// This form borrows a pooled Scratch; hot paths should hold their own and
// call Scratch.Unique.
func Unique(s *pli.Store, cols attrset.Set, minNewID int64) (unique bool, w Witness) {
	sc := scratchPool.Get().(*Scratch)
	unique, w = sc.Unique(s, cols, minNewID)
	scratchPool.Put(sc)
	return unique, w
}

// FrozenUnique is the key check on a frozen view, with a pooled Scratch.
func FrozenUnique(f *pli.Frozen, cols attrset.Set) bool {
	sc := scratchPool.Get().(*Scratch)
	unique := sc.FrozenUnique(f, cols)
	scratchPool.Put(sc)
	return unique
}

// AgreeSet returns the set of attributes on which the two compressed
// records hold equal values. Records encode equal values as equal cluster
// ids, so this is a plain element-wise comparison.
func AgreeSet(a, b pli.Record) attrset.Set {
	var s attrset.Set
	for i := range a {
		if a[i] == b[i] {
			s = s.With(i)
		}
	}
	return s
}

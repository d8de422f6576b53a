package core

import (
	"sort"

	"dynfd/internal/attrset"
	"dynfd/internal/induct"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
	"dynfd/internal/validate"
)

// violationSearch implements the progressive record-pair search of paper
// §4.3. Any new violation must involve at least one record inserted in the
// current batch, and the violating partner must share at least one value
// with it — i.e. it sits in one of the new record's Pli clusters. The
// search therefore compares every new record against cluster neighbours at
// progressively growing window distances and stops when fewer than the
// threshold fraction of comparisons yield new non-FDs.
//
// When the ViolationSearch strategy is disabled, the baseline of §6.5 runs
// instead: a single pass that compares changed records only to their
// direct cluster neighbours (window 1).
func (e *Engine) violationSearch(newIDs []int64) {
	e.stats.ViolationSearchRuns++
	// The dedup maps are engine-held and cleared per search, so the buckets
	// warm up across batches instead of being reallocated every run.
	if e.vsCompared == nil {
		e.vsCompared = make(map[[2]int64]bool)
		e.vsSeenAgree = make(map[attrset.Set]bool)
	}
	clear(e.vsCompared)
	clear(e.vsSeenAgree)
	compared := e.vsCompared
	seenAgree := e.vsSeenAgree
	progressive := e.cfg.ViolationSearch
	for window := 1; ; window *= 2 {
		comparisons, hits := 0, 0
		for _, id := range newIDs {
			rec, ok := e.store.Record(id)
			if !ok {
				continue // inserted and deleted within the same batch
			}
			for a := 0; a < e.numAttrs; a++ {
				cluster := e.store.Index(a).Cluster(rec[a])
				if cluster == nil || cluster.Size() < 2 {
					continue
				}
				pos := sort.Search(len(cluster.IDs), func(i int) bool { return cluster.IDs[i] >= id })
				for _, j := range [2]int{pos - window, pos + window} {
					if j < 0 || j >= len(cluster.IDs) {
						continue
					}
					partner := cluster.IDs[j]
					if partner == id {
						continue
					}
					key := [2]int64{min64(id, partner), max64(id, partner)}
					if compared[key] {
						continue
					}
					compared[key] = true
					comparisons++
					if e.comparePair(id, partner, rec, seenAgree) {
						hits++
					}
				}
			}
		}
		e.stats.Comparisons += comparisons
		if !progressive {
			return // baseline: direct neighbours only
		}
		if comparisons == 0 || float64(hits) < efficiencyThreshold*float64(comparisons) {
			return
		}
	}
}

// comparePair derives the non-FDs implied by one record pair (the agree
// set determines every attribute on which the records differ is a non-FD
// right-hand side) and folds them into both covers via dependency
// induction (paper §4.3, Algorithm 3). It reports whether the pair
// produced at least one new maximal non-FD.
func (e *Engine) comparePair(a, b int64, recA pli.Record, seenAgree map[attrset.Set]bool) bool {
	recB, ok := e.store.Record(b)
	if !ok {
		return false
	}
	agree := validate.AgreeSet(recA, recB)
	if seenAgree[agree] {
		return false // an identical agree set was already folded in
	}
	seenAgree[agree] = true
	found := false
	for rhs := 0; rhs < e.numAttrs; rhs++ {
		if agree.Contains(rhs) {
			continue
		}
		// Algorithm 3: record the maximal non-FD in the negative cover and
		// specialize every violated FD in the positive cover. When the
		// non-FD is already covered, a superset agree set was processed
		// before and the positive cover holds no generalizations of it, so
		// the induction can be skipped; the level-wise validation remains
		// the authority either way.
		if induct.AddMaximalNonFD(e.nonFds, agree, rhs) {
			e.nonFds.SetViolation(agree, rhs, lattice.Violation{A: a, B: b})
			induct.Specialize(e.fds, agree, rhs, e.numAttrs)
			found = true
		}
	}
	return found
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

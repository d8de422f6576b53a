package core

import (
	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/induct"
	"dynfd/internal/lattice"
	"dynfd/internal/validate"
)

// processInserts implements the lattice-traversal FD validation for insert
// batches (paper §4.1, Algorithm 2). Inserts can only invalidate FDs, so
// the positive cover is validated level-wise from the most general to the
// most specific candidates; invalidated FDs move to the negative cover and
// are replaced by their minimal specializations, which the traversal
// validates when it reaches their level. When a level yields too many
// invalid candidates, the progressive violation search (§4.3) takes over
// the hunt for further violations.
//
// Each level is swept in candidate order on the engine goroutine, after
// the whole store is maintained (Figure 1 step 1, pipeline.go): every
// candidate is classified, validated if it must be, and merged into the
// covers. The agree-mask index and the violation search read every
// attribute of the maintained store.
//
// minNewID is the smallest surrogate id assigned in this batch; newIDs are
// all ids inserted by the batch; touched holds the columns the batch may
// have changed (all columns unless update-column pruning narrowed it).
func (e *Engine) processInserts(minNewID int64, newIDs []int64, touched attrset.Set) error {
	// Cluster pruning (paper §4.2) answers every validation of the sweep
	// from the batch's agree-mask index (validate/agree.go); without it
	// each candidate is validated in full.
	var agree *validate.AgreeIndex
	if e.cfg.ClusterPruning {
		e.agree.Open(e.store, minNewID)
		agree = e.agree
	}
	for level := 0; level <= e.numAttrs; level++ {
		e.levelBuf = e.fds.AppendLevel(e.levelBuf[:0], level)
		candidates := e.levelBuf
		if len(candidates) == 0 {
			continue
		}
		// Account the work and fold every invalidated candidate into the
		// covers (Algorithm 2 lines 6-15): it is removed, replaced by its
		// minimal specializations, and recorded as a maximal non-FD with
		// its witness.
		invalid := 0
		for _, cand := range candidates {
			switch e.classifyInsert(cand, touched) {
			case scanStale:
				continue
			case scanSkipped:
				e.stats.SkippedValidations++
				continue
			}
			o, err := e.validateInline(validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs}, agree)
			if err != nil {
				return err
			}
			e.stats.Validations++
			if o.Valid {
				continue
			}
			invalid++
			induct.Specialize(e.fds, cand.Lhs, cand.Rhs, e.numAttrs)
			e.addNonFD(cand.Lhs, cand.Rhs, lattice.Violation{A: o.Witness.A, B: o.Witness.B})
		}
		// Lines 16-17: switch to the violation search when the traversal
		// becomes inefficient.
		if float64(invalid) > e.cfg.EfficiencyThreshold*float64(len(candidates)) {
			e.violationSearch(newIDs)
		}
	}
	return nil
}

// classifyInsert decides one positive-cover candidate's fate for the
// insert sweep without mutating engine state.
func (e *Engine) classifyInsert(cand fd.FD, touched attrset.Set) scanKind {
	if !e.fds.Contains(cand.Lhs, cand.Rhs) {
		return scanStale // removed by an earlier specialization or search
	}
	if e.keySet.Intersects(cand.Lhs) {
		// A declared key in the Lhs makes every Lhs group a single
		// record; the FD can never be invalidated (§8 ext. 2).
		return scanSkipped
	}
	if !cand.Lhs.With(cand.Rhs).Intersects(touched) {
		// No involved column changed, so the FD's validity cannot
		// have changed either (§8 ext. 3).
		return scanSkipped
	}
	return scanEligible
}

// addNonFD records a newly discovered non-FD in the negative cover with
// its violating record pair (paper §4.1: remove all generalizations, then
// add; §5.2: attach the surrogate violation).
func (e *Engine) addNonFD(lhs attrset.Set, rhs int, v lattice.Violation) {
	if induct.AddMaximalNonFD(e.nonFds, lhs, rhs) {
		e.nonFds.SetViolation(lhs, rhs, v)
	}
}

package core

import (
	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/validate"
)

// processDeletes implements the lattice-traversal non-FD validation for
// delete batches (paper §5.1, Algorithm 4). Deletes can only resolve
// violations, so the negative cover is validated level-wise from the most
// specific to the most general non-FDs; non-FDs that became valid move to
// the positive cover and are replaced by their maximal generalizations,
// which the traversal validates on the next (lower) level. Validation
// pruning (§5.2) skips every non-FD whose annotated violating record pair
// is still alive. When a level yields too many newly valid FDs, optimistic
// depth-first searches (§5.3) chase the generalizations ahead of the
// level-wise sweep.
//
// Each level is swept in candidate order on the engine goroutine, after
// the whole store is maintained (Figure 1 step 1, pipeline.go): every
// non-FD is classified, validated if it must be, and merged; the newly
// valid ones are promoted once the whole level is merged.
func (e *Engine) processDeletes(touched attrset.Set) error {
	for level := e.numAttrs; level >= 0; level-- {
		e.levelBuf = e.nonFds.AppendLevel(e.levelBuf[:0], level)
		candidates := e.levelBuf
		if len(candidates) == 0 {
			continue
		}
		// Account the work, refresh the witnesses of still-invalid
		// non-FDs, and collect the newly valid FDs in candidate order.
		var validFds []fd.FD
		for _, cand := range candidates {
			switch e.classifyDelete(cand, touched) {
			case scanStale:
				continue
			case scanSkipped:
				e.stats.SkippedValidations++
				continue
			}
			o, err := e.validateInline(validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs}, nil)
			if err != nil {
				return err
			}
			e.stats.Validations++
			if o.Valid {
				validFds = append(validFds, cand)
			} else if e.cfg.ValidationPruning {
				// Attach the fresh witness so future batches can skip
				// this non-FD again.
				e.nonFds.SetViolation(cand.Lhs, cand.Rhs,
					lattice.Violation{A: o.Witness.A, B: o.Witness.B})
			}
		}
		for _, f := range validFds {
			if e.nonFds.Contains(f.Lhs, f.Rhs) {
				e.promoteNonFD(f)
			}
		}
		// Lines 15-16: optimistic depth-first searches when the level-wise
		// sweep becomes inefficient.
		if e.cfg.DepthFirstSearch &&
			float64(len(validFds)) > e.cfg.EfficiencyThreshold*float64(len(candidates)) {
			e.depthFirstSearches(validFds)
		}
	}
	return nil
}

// classifyDelete decides one negative-cover candidate's fate for the
// delete sweep.
func (e *Engine) classifyDelete(nonFd fd.FD, touched attrset.Set) scanKind {
	if !e.nonFds.Contains(nonFd.Lhs, nonFd.Rhs) {
		return scanStale // removed by a depth-first search in this level
	}
	if !nonFd.Lhs.With(nonFd.Rhs).Intersects(touched) {
		// No involved column changed; the non-FD's violations over
		// these columns survive in the updated tuple versions (§8 ext. 3).
		return scanSkipped
	}
	if !e.needsValidation(nonFd) {
		return scanSkipped
	}
	return scanEligible
}

// needsValidation implements the validation pruning of §5.2: a non-FD can
// be skipped when its annotated violating record pair still exists, since
// the violation then still disproves it. Non-FDs without an annotation —
// freshly generalized candidates and the whole cover on the very first
// batch — are always validated.
func (e *Engine) needsValidation(nonFd fd.FD) bool {
	if !e.cfg.ValidationPruning {
		return true
	}
	v, ok := e.nonFds.Violation(nonFd.Lhs, nonFd.Rhs)
	if !ok {
		return true
	}
	_, aliveA := e.store.Record(v.A)
	_, aliveB := e.store.Record(v.B)
	return !aliveA || !aliveB
}

// promoteNonFD moves a de-facto-valid non-FD into the positive cover and
// replaces it in the negative cover by its maximal generalizations
// (Algorithm 4 lines 6-12). Dropping an attribute outside the Lhs would
// keep the Lhs a superset of a valid FD, so only direct generalizations
// within the Lhs are candidates.
func (e *Engine) promoteNonFD(f fd.FD) {
	e.nonFds.Remove(f.Lhs, f.Rhs)
	if !e.fds.ContainsGeneralization(f.Lhs, f.Rhs) {
		e.fds.RemoveSpecializations(f.Lhs, f.Rhs)
		e.fds.Add(f.Lhs, f.Rhs)
	}
	// Note: candidates that are in fact valid (e.g. implied by an FD the
	// depth-first search promoted early) are added anyway; the descending
	// sweep validates and promotes them on the next level, which keeps the
	// generalization chains below them intact.
	f.Lhs.ForEach(func(r int) bool {
		gen := f.Lhs.Without(r)
		if !e.nonFds.ContainsSpecialization(gen, f.Rhs) {
			e.nonFds.Add(gen, f.Rhs)
		}
		return true
	})
}

package core

import (
	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/sched"
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
// Like the insert side, each level is classified on the engine goroutine,
// validated inline or in chunks across the scheduler's workers, and merged
// in candidate order. The sweep starts after the whole store is maintained
// (Figure 1 step 1, pipeline.go), so every candidate is runnable as soon as
// it is classified; with background workers the next level is previewed
// speculatively while the current one merges.
func (e *Engine) processDeletes(ses *sched.Session, touched attrset.Set) error {
	clear(e.specCache)
	for level := e.numAttrs; level >= 0; level-- {
		e.levelBuf = e.nonFds.AppendLevel(e.levelBuf[:0], level)
		candidates := e.levelBuf
		if len(candidates) == 0 {
			continue
		}
		outcomes := e.outcomeBuf(len(candidates))
		slots := e.chunkSlots(len(candidates))
		b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates))}
		eligible := 0
		for i, cand := range candidates {
			kind := e.classifyDelete(cand, touched)
			outcomes[i] = scanOutcome{kind: kind}
			if kind != scanEligible {
				continue
			}
			eligible++
			if e.pool.Background() == 0 {
				r, err := e.validateInline(validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs}, nil)
				if err != nil {
					return err
				}
				foldOutcome(&outcomes[i], r)
				continue
			}
			if sl, ok := e.specCache[cand]; ok {
				slots[i] = sl
				e.stats.SpeculativeHits++
				continue
			}
			slots[i] = b.add(cand)
		}
		b.flush()
		if eligible > 0 && e.pool.Background() > 0 {
			e.stats.ParallelLevels++
		}
		// Preview the next level's pre-existing non-FDs while this level's
		// chunks run; candidates promoted by this merge are speculated as
		// they appear below.
		if e.pool.Background() > 0 && level > 0 {
			e.speculateDeleteLevel(ses, level-1, touched)
		}
		// Merge: account the work, refresh the witnesses of still-invalid
		// non-FDs, and collect the newly valid FDs in candidate order.
		var validFds []fd.FD
		for i, cand := range candidates {
			o := &outcomes[i]
			if o.kind == scanEligible {
				if err := e.resolveOutcome(ses, o, slots[i]); err != nil {
					return err
				}
			}
			if e.applyDeleteOutcome(cand, *o) {
				validFds = append(validFds, cand)
			}
		}
		sb := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates))}
		for _, f := range validFds {
			if !e.nonFds.Contains(f.Lhs, f.Rhs) {
				continue
			}
			e.promoteNonFD(f)
			if e.pool.Background() > 0 && level > 0 {
				e.speculatePromoted(sb, f, touched)
			}
		}
		sb.flush()
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
// delete sweep; the speculative previews use it too.
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

// applyDeleteOutcome folds one non-FD's scan outcome into stats and
// witness refreshes; reports whether the non-FD turned out valid (the
// caller collects those for promotion after the whole level merged).
func (e *Engine) applyDeleteOutcome(nonFd fd.FD, o scanOutcome) bool {
	switch o.kind {
	case scanSkipped:
		e.stats.SkippedValidations++
	case scanValid:
		e.stats.Validations++
		return true
	case scanInvalid:
		e.stats.Validations++
		if e.cfg.ValidationPruning {
			// Attach the fresh witness so future batches can skip
			// this non-FD again.
			e.nonFds.SetViolation(nonFd.Lhs, nonFd.Rhs,
				lattice.Violation{A: o.witness.A, B: o.witness.B})
		}
	}
	return false
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

// speculateDeleteLevel submits validations for the next level's existing
// non-FDs ahead of their classification.
func (e *Engine) speculateDeleteLevel(ses *sched.Session, level int, touched attrset.Set) {
	e.specBuf = e.nonFds.AppendLevel(e.specBuf[:0], level)
	if len(e.specBuf) == 0 {
		return
	}
	b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(e.specBuf))}
	for _, cand := range e.specBuf {
		if _, ok := e.specCache[cand]; ok {
			continue
		}
		if e.classifyDelete(cand, touched) != scanEligible {
			continue
		}
		e.specCache[cand] = b.add(cand)
		e.stats.SpeculativeValidations++
	}
	b.flush()
}

// speculatePromoted submits validations for the generalizations a
// promotion just added to the negative cover — the next level's freshest
// candidates.
func (e *Engine) speculatePromoted(b *chunkBuilder, f fd.FD, touched attrset.Set) {
	f.Lhs.ForEach(func(r int) bool {
		gen := fd.FD{Lhs: f.Lhs.Without(r), Rhs: f.Rhs}
		if _, ok := e.specCache[gen]; ok {
			return true
		}
		if e.classifyDelete(gen, touched) != scanEligible {
			return true
		}
		e.specCache[gen] = b.add(gen)
		e.stats.SpeculativeValidations++
		return true
	})
}

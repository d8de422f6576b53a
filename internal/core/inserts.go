package core

import (
	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/induct"
	"dynfd/internal/lattice"
	"dynfd/internal/sched"
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
// Each level is classified on the engine goroutine, its eligible
// candidates are validated (inline, or chunked across the scheduler's
// workers), and the merge applies the cover updates in candidate order.
// The sweep needs the whole store (the agree-mask index and the violation
// search read every attribute), so it waits for full maintenance once; with
// background workers it then pipelines levels, validating the next level
// speculatively while the current one merges (pipeline.go).
//
// minNewID is the smallest surrogate id assigned in this batch; newIDs are
// all ids inserted by the batch; touched holds the columns the batch may
// have changed (all columns unless update-column pruning narrowed it).
func (e *Engine) processInserts(ses *sched.Session, minNewID int64, newIDs []int64, touched attrset.Set) error {
	if err := ses.AwaitReady(attrset.Full(e.numAttrs)); err != nil {
		return err
	}
	clear(e.specCache)
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
		outcomes := e.outcomeBuf(len(candidates))
		slots := e.chunkSlots(len(candidates))
		b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates)), agree: agree}
		eligible := 0
		for i, cand := range candidates {
			kind := e.classifyInsert(cand, touched)
			outcomes[i] = scanOutcome{kind: kind}
			if kind != scanEligible {
				continue
			}
			eligible++
			if e.pool.Background() == 0 {
				r, err := e.validateInline(validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs}, agree)
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
			slots[i] = b.add(cand, attrset.Set{})
		}
		b.flush()
		if eligible > 0 && e.pool.Background() > 0 {
			e.stats.ParallelLevels++
		}
		if e.pool.Background() > 0 && level < e.numAttrs {
			e.speculateInsertLevel(ses, level+1, agree, touched)
		}
		// Merge: account the work, then fold every invalidated candidate
		// into the covers in candidate order (Algorithm 2 lines 6-15).
		sb := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(candidates)), agree: agree}
		invalid := 0
		for i, cand := range candidates {
			o := &outcomes[i]
			if o.kind == scanEligible {
				if err := e.resolveOutcome(ses, o, slots[i]); err != nil {
					return err
				}
			}
			inv, specialized := e.applyInsertOutcome(cand, *o)
			if inv {
				invalid++
			}
			if specialized && e.pool.Background() > 0 {
				e.speculateSpecialized(sb, cand, touched)
			}
		}
		sb.flush()
		// Lines 16-17: switch to the violation search when the traversal
		// becomes inefficient.
		if float64(invalid) > e.cfg.EfficiencyThreshold*float64(len(candidates)) {
			e.violationSearch(newIDs)
		}
	}
	return nil
}

// classifyInsert decides one positive-cover candidate's fate for the
// insert sweep without mutating engine state. The speculative previews use
// it too, so speculation prunes exactly like the sweep.
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

// applyInsertOutcome folds one candidate's scan outcome into stats and
// covers (Algorithm 2 lines 6-15): an invalidated FD is removed, replaced
// by its minimal specializations, and recorded as a maximal non-FD with
// its witness. Reports whether the candidate was invalid, and whether its
// specializations were actually induced (false when a concurrent search
// already removed it).
func (e *Engine) applyInsertOutcome(cand fd.FD, o scanOutcome) (invalid, specialized bool) {
	switch o.kind {
	case scanSkipped:
		e.stats.SkippedValidations++
	case scanValid:
		e.stats.Validations++
	case scanInvalid:
		e.stats.Validations++
		if !e.fds.Contains(cand.Lhs, cand.Rhs) {
			return true, false
		}
		induct.Specialize(e.fds, cand.Lhs, cand.Rhs, e.numAttrs)
		e.addNonFD(cand.Lhs, cand.Rhs, lattice.Violation{A: o.witness.A, B: o.witness.B})
		return true, true
	}
	return false, false
}

// addNonFD records a newly discovered non-FD in the negative cover with
// its violating record pair (paper §4.1: remove all generalizations, then
// add; §5.2: attach the surrogate violation).
func (e *Engine) addNonFD(lhs attrset.Set, rhs int, v lattice.Violation) {
	if induct.AddMaximalNonFD(e.nonFds, lhs, rhs) {
		e.nonFds.SetViolation(lhs, rhs, v)
	}
}

// speculateInsertLevel submits validations for the next level's existing
// positive-cover members ahead of their classification. The store is fully
// maintained during the insert sweep, so no readiness check is needed.
func (e *Engine) speculateInsertLevel(ses *sched.Session, level int, agree *validate.AgreeIndex, touched attrset.Set) {
	e.specBuf = e.fds.AppendLevel(e.specBuf[:0], level)
	if len(e.specBuf) == 0 {
		return
	}
	b := &chunkBuilder{e: e, ses: ses, size: e.chunkSize(len(e.specBuf)), agree: agree}
	for _, cand := range e.specBuf {
		if _, ok := e.specCache[cand]; ok {
			continue
		}
		if e.classifyInsert(cand, touched) != scanEligible {
			continue
		}
		e.specCache[cand] = b.add(cand, attrset.Set{})
		e.stats.SpeculativeValidations++
	}
	b.flush()
}

// speculateSpecialized submits validations for the minimal specializations
// an invalidation just added to the positive cover — the next level's
// freshest candidates.
func (e *Engine) speculateSpecialized(b *chunkBuilder, cand fd.FD, touched attrset.Set) {
	for r := 0; r < e.numAttrs; r++ {
		if cand.Lhs.Contains(r) || r == cand.Rhs {
			continue
		}
		spec := fd.FD{Lhs: cand.Lhs.With(r), Rhs: cand.Rhs}
		if _, ok := e.specCache[spec]; ok {
			continue
		}
		if e.classifyInsert(spec, touched) != scanEligible {
			continue
		}
		e.specCache[spec] = b.add(spec, attrset.Set{})
		e.stats.SpeculativeValidations++
	}
}

package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"dynfd/internal/fanout"
	"dynfd/internal/validate"
)

// Batch execution (DESIGN.md §13): maintain in parallel, sweep inline.
//
// Every batch first maintains the whole Pli store (paper Figure 1 step 1,
// maintainStore): pli.Store.ApplyBatch fans the per-attribute shards out
// across GOMAXPROCS goroutines and joins before it returns. Both
// lattice sweeps (deletes.go, inserts.go) then run on the engine goroutine
// as the paper's level-wise loops: each candidate of a level is
// classified, validated if it must be, and merged, in candidate order.
// Validation is a pure function of the maintained store, so the covers and
// the work counters after every batch are identical at every GOMAXPROCS
// (asserted by the equivalence property tests and
// TestReplayWorkCountersDeterministic).

// scanKind classifies one candidate of a lattice level before it is
// merged.
type scanKind uint8

const (
	// scanStale: the candidate is no longer a cover member; no work, no
	// stats.
	scanStale scanKind = iota
	// scanSkipped: a pruning rule discharged the candidate without
	// validating (counted as a skipped validation).
	scanSkipped
	// scanEligible: the candidate must be validated against the store.
	scanEligible
)

// validateInline runs one candidate validation on the engine goroutine. A
// non-nil agree answers it as a pruned insert-phase validation. A
// panicking validator is recovered as a *fanout.PanicError, the error a
// panicking maintenance worker returns too, so it poisons the engine
// instead of crashing the process.
func (e *Engine) validateInline(r validate.Request, agree *validate.AgreeIndex) (o validate.Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &fanout.PanicError{Worker: 0, Value: p, Stack: debug.Stack()}
		}
	}()
	return validate.One(e.scratch, e.store, agree, r), nil
}

// maintainStore runs Figure 1 step 1 for a planned batch: it applies the
// batch's net deletes and inserts to every Pli shard, fanned out across
// GOMAXPROCS goroutines inside pli.Store.ApplyBatch, and moves the id
// horizon past ids the batch consumed without keeping. ApplyBatch and
// ApplyPatched both call it before their sweeps or patches; the time since
// structStart, planning included, is billed to StructureTime. A batch the
// store rejects leaves it unchanged and the engine usable. Once the store
// has changed, its only error is a captured maintenance panic, which
// poisons the engine, as does a failure to move the id horizon.
func (e *Engine) maintainStore(p batchPlan, structStart time.Time) error {
	if err := e.store.ApplyBatch(e.planDeletes, p.ins); err != nil {
		var pe *fanout.PanicError
		if errors.As(err, &pe) {
			e.poisoned = err
		}
		return fmt.Errorf("core: applying batch: %w", err)
	}
	if p.nextID > e.store.NextID() {
		if err := e.store.SetNextID(p.nextID); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: applying batch: %w", err)
		}
	}
	e.stats.StructureTime += time.Since(structStart)
	return nil
}

// runSweeps runs steps 2 and 3 of ApplyBatch over the maintained store:
// the delete sweep if the batch deletes, then the insert sweep if it
// inserts. On return either both sweeps completed or the engine is
// poisoned.
func (e *Engine) runSweeps(p batchPlan) error {
	if p.deletes > 0 {
		start := time.Now()
		if err := e.processDeletes(p.touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: delete phase: %w", err)
		}
		e.stats.DeletePhaseTime += time.Since(start)
	}
	if len(p.ids) > 0 {
		start := time.Now()
		if err := e.processInserts(p.minNewID, p.ids, p.touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: insert phase: %w", err)
		}
		e.stats.InsertPhaseTime += time.Since(start)
		e.stats.AgreePairs += e.agree.Counters().Pairs
	}
	return nil
}

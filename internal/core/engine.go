// Package core implements DynFD, the incremental maintenance algorithm for
// minimal functional dependencies on dynamic datasets (Schirmer et al.,
// EDBT 2019). The Engine owns the runtime data structures of §3 — the Pli
// store with dictionary-encoded records and the positive and negative FD
// covers — and evolves them batch by batch along the processing pipeline of
// Figure 1:
//
//  1. apply the batch's structural changes to the Pli store,
//  2. process deletes against the negative cover (§5),
//  3. process inserts against the positive cover (§4),
//  4. report the FD changes.
//
// Steps 2 and 3 leave a cover delta behind (coverdelta.go); a replication
// follower given that delta runs step 1 and patches its covers instead of
// repeating the sweeps (ApplyPatched).
package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"dynfd/internal/attrset"
	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/hyfd"
	"dynfd/internal/induct"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
	"dynfd/internal/stream"
	"dynfd/internal/validate"
)

// Engine maintains the exact set of minimal, non-trivial FDs of a single
// relation under batches of inserts, updates, and deletes. An Engine is not
// safe for concurrent use: callers must serialize access. Internally,
// ApplyBatch spreads Pli maintenance across at most GOMAXPROCS goroutines
// (see pipeline.go); that parallelism never escapes a call.
type Engine struct {
	cfg      Config
	numAttrs int
	store    *pli.Store
	fds      *lattice.Cover       // positive cover: all minimal FDs
	nonFds   lattice.View         // negative cover: all maximal non-FDs (complement-keyed)
	keySet   attrset.Set          // declared unique columns (Config.KeyColumns)
	scratch  *validate.Scratch    // validation kernel buffers
	agree    *validate.AgreeIndex // insert phase: the batch's agree-mask index (cluster pruning)
	rng      *rand.Rand
	stats    Stats

	// poisoned is set when a batch failed after the point of no return — a
	// captured panic or a mid-apply error that may have left the store or
	// the covers inconsistent. A poisoned engine fails every further
	// ApplyBatch fast instead of operating on possibly-corrupt state; reads
	// remain allowed so callers can inspect and snapshot what survived.
	poisoned error

	// Reusable per-batch buffers. All of them are owned by the engine
	// goroutine and reset (not reallocated) at the start of each use, so
	// steady-state batches stop paying per-level and per-search
	// allocations. None of them carry state across uses.
	vsCompared  map[[2]int64]bool    // violationSearch: compared record pairs
	vsSeenAgree map[attrset.Set]bool // violationSearch: folded agree sets
	dfsVisited  map[fd.FD]bool       // depthFirstSearches: visited candidates
	planBorn    map[int64][]string   // ApplyBatch planner: batch-born id -> values
	planDead    map[int64]bool       // ApplyBatch planner: ids deleted by the batch
	planDeletes []int64              // ApplyBatch planner: pre-existing ids to delete
	planInserts []pli.BatchInsert    // ApplyBatch planner: surviving inserts
	levelBuf    []fd.FD              // lattice sweeps: current-level candidates

	// delta is the cover delta of the last applied batch (coverdelta.go),
	// built from the covers' mutation journals.
	delta CoverDelta
}

// initExtras finishes construction: the cover journals that record each
// batch's cover delta, declared key columns, the engine-held validation
// scratch and agree-mask index, and the seeded random source for the
// depth-first-search sampling.
func (e *Engine) initExtras() {
	for _, a := range e.cfg.KeyColumns {
		if a >= 0 && a < e.numAttrs {
			e.keySet = e.keySet.With(a)
		}
	}
	e.fds.StartJournal()
	e.nonFds.StartJournal()
	e.scratch = validate.NewScratch()
	e.agree = &validate.AgreeIndex{}
	e.rng = rand.New(rand.NewSource(e.cfg.Seed))
}

// NewEmpty returns an engine for an initially empty relation with numAttrs
// attributes. On an empty instance every FD holds, so the positive cover
// starts as {∅ → A | A ∈ R} and the negative cover is empty.
func NewEmpty(numAttrs int, cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		numAttrs: numAttrs,
		store:    pli.NewStore(numAttrs),
		fds:      lattice.New(numAttrs),
		nonFds:   lattice.NewFlipped(numAttrs),
	}
	for a := 0; a < numAttrs; a++ {
		e.fds.Add(attrset.Set{}, a)
	}
	e.initExtras()
	return e
}

// Bootstrap returns an engine initialized from a populated relation. The
// static HyFD algorithm profiles the initial tuples and hands over its data
// structures and positive cover (paper §2); the negative cover is derived
// through cover inversion (paper §3.2, Algorithm 1). The store's
// attributes load in parallel, fanned out across GOMAXPROCS.
func Bootstrap(rel *dataset.Relation, cfg Config) (*Engine, error) {
	store, err := hyfd.Load(rel)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap: %w", err)
	}
	return FromHyFD(hyfd.DiscoverStore(store), cfg), nil
}

// FromHyFD adopts the output of a HyFD run: the Pli store and the positive
// cover are taken over directly, the negative cover is computed by cover
// inversion. The result must not be reused elsewhere afterwards.
func FromHyFD(res *hyfd.Result, cfg Config) *Engine {
	numAttrs := res.Store.NumAttrs()
	e := &Engine{
		cfg:      cfg,
		numAttrs: numAttrs,
		store:    res.Store,
		fds:      res.FDs,
		nonFds:   induct.Invert(res.FDs, numAttrs),
	}
	e.initExtras()
	return e
}

// NumAttrs returns the schema width.
func (e *Engine) NumAttrs() int { return e.numAttrs }

// Config returns the engine's normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// Holds reports whether lhs → rhs currently holds: a trivial candidate
// (rhs ∈ lhs) always holds, any other candidate holds iff some maintained
// minimal FD generalizes it.
func (e *Engine) Holds(lhs []int, rhs int) bool {
	var s attrset.Set
	for _, a := range lhs {
		s = s.With(a)
	}
	if s.Contains(rhs) {
		return true
	}
	return e.fds.ContainsGeneralization(s, rhs)
}

// NumRecords returns the current tuple count.
func (e *Engine) NumRecords() int { return e.store.NumRecords() }

// FDs returns the current minimal, non-trivial FDs in deterministic order.
func (e *Engine) FDs() []fd.FD { return e.fds.All() }

// NonFDs returns the current maximal non-FDs in deterministic order.
func (e *Engine) NonFDs() []fd.FD { return e.nonFds.All() }

// Stats returns the accumulated work counters.
func (e *Engine) Stats() Stats { return e.stats }

// Poisoned returns the error that poisoned the engine, or nil while the
// engine is healthy. A poisoned engine refuses every further ApplyBatch;
// read accessors keep working on the (possibly inconsistent) survivors.
func (e *Engine) Poisoned() error { return e.poisoned }

// Record returns the current values of a live record.
func (e *Engine) Record(id int64) ([]string, bool) { return e.store.Values(id) }

// Lookup returns the ids of live records matching the given tuple.
func (e *Engine) Lookup(values []string) ([]int64, error) { return e.store.Lookup(values) }

// ForEachRecord visits every live record in unspecified order, passing its
// surrogate id and current values. Returning false from f stops the scan.
// The values slice is freshly allocated per record and may be retained.
func (e *Engine) ForEachRecord(f func(id int64, values []string) bool) {
	e.store.ForEachRecord(func(id int64, _ pli.Record) bool {
		values, _ := e.store.Values(id)
		return f(id, values)
	})
}

// Violations inspects why lhs → rhs does not hold: it returns up to max
// groups of records that agree on lhs but differ on rhs (max <= 0 returns
// all), plus the g3 error — the minimum fraction of records whose removal
// would make the FD hold. For a valid FD it returns no groups and 0.
func (e *Engine) Violations(lhs []int, rhs int, max int) ([]validate.ViolationGroup, float64) {
	var s attrset.Set
	for _, a := range lhs {
		s = s.With(a)
	}
	return e.scratch.Violations(e.store, s, rhs, max)
}

// Result describes the outcome of one batch.
type Result struct {
	// InsertedIDs holds the surrogate id assigned to each insert and
	// update of the batch, in batch order (updates receive a fresh id for
	// their new tuple version).
	InsertedIDs []int64
	// Added and Removed are the minimal-FD changes caused by the batch.
	Added, Removed []fd.FD
}

// CheckBatch verifies that a batch would apply cleanly — arities match and
// every delete/update target resolves, including references to records
// born earlier in the same batch — without touching any engine state. Use
// it in front of ApplyBatch when the batch comes from an untrusted source,
// because ApplyBatch leaves the engine in an unspecified state on error.
func (e *Engine) CheckBatch(batch stream.Batch) error {
	nextID := e.store.NextID()
	dead := make(map[int64]bool)
	born := make(map[int64]bool)
	alive := func(id int64) bool {
		if dead[id] {
			return false
		}
		if born[id] {
			return true
		}
		_, ok := e.store.Record(id)
		return ok
	}
	for i, c := range batch.Changes {
		if err := c.Validate(e.numAttrs); err != nil {
			return fmt.Errorf("core: batch change %d: %w", i, err)
		}
		switch c.Kind {
		case stream.Delete:
			if !alive(c.ID) {
				return fmt.Errorf("core: batch change %d: record %d not found", i, c.ID)
			}
			dead[c.ID] = true
		case stream.Update:
			if !alive(c.ID) {
				return fmt.Errorf("core: batch change %d: record %d not found", i, c.ID)
			}
			dead[c.ID] = true
			born[nextID] = true
			nextID++
		case stream.Insert:
			born[nextID] = true
			nextID++
		}
	}
	return nil
}

// ApplyBatch incorporates one batch of change operations and returns the
// resulting FD changes. Updates are processed as a delete followed by an
// insert; all structural deletes are applied before all inserts so the
// intermediate relation never holds both versions of an updated tuple
// (paper §2).
//
// Failure semantics: errors raised while the batch is validated and
// planned (bad arity, unknown record ids) leave the engine untouched and
// it stays usable. An error after structural application began — a
// captured validator or maintenance-worker panic, a panic on the engine
// goroutine, or a store maintenance failure — may leave the covers and the Pli store
// inconsistent, so the engine poisons itself: every subsequent ApplyBatch
// fails fast with the original cause (see Poisoned).
func (e *Engine) ApplyBatch(batch stream.Batch) (res Result, err error) {
	if e.poisoned != nil {
		return Result{}, fmt.Errorf("core: engine poisoned by earlier failure, refusing batch: %w", e.poisoned)
	}
	for i, c := range batch.Changes {
		if err := c.Validate(e.numAttrs); err != nil {
			return Result{}, fmt.Errorf("core: batch change %d: %w", i, err)
		}
	}
	// Any panic on the engine goroutine from here on (planning state is
	// reset per batch, so poisoning early is harmless) is converted into a
	// poisoning error rather than unwinding through the caller with the
	// covers half-merged. Maintenance-worker panics are captured by the
	// store's fan-out and arrive here as ordinary errors.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: ApplyBatch panicked: %v\n%s", r, debug.Stack())
			e.poisoned = err
		}
	}()
	structStart := time.Now()
	p, err := e.planBatch(batch)
	if err != nil {
		return Result{}, err
	}
	e.fds.ResetJournal()
	e.nonFds.ResetJournal()
	// Step 1 maintains the whole store; steps 2 and 3 then sweep it
	// inline (DESIGN.md §13).
	if err := e.maintainStore(p, structStart); err != nil {
		return Result{}, err
	}
	if err := e.runSweeps(p); err != nil {
		return Result{}, err
	}
	// Step 4: signal the changed FDs.
	return e.finishBatch(p), nil
}

// batchPlan is a batch reduced to its net structural effect (see
// planBatch). Its slices alias engine-held planner buffers and are valid
// until the next plan.
type batchPlan struct {
	minNewID, nextID int64             // first id the batch assigns; NextID after it
	deletes          int               // deletes and updates in the batch
	ids              []int64           // ids assigned to inserts and updates, in batch order
	ins              []pli.BatchInsert // surviving inserts (born and not deleted in the batch)
	touched          attrset.Set       // columns whose projection the batch may change
}

// planBatch runs step 1's planning: the batch is reduced, in batch order,
// to its net effect — the set of pre-existing records it deletes (left in
// e.planDeletes) and the surviving new tuples with their pre-assigned ids —
// which maintainStore then applies as one store batch, compacting each
// touched cluster once and maintaining each attribute's index on its own
// worker (DESIGN.md §10, §13). Planning in batch order keeps the original
// semantics: changes may reference records born earlier in the same
// batch, and a tuple born and deleted within the batch consumes its
// surrogate id without ever entering the store. The FD reasoning in steps
// 2 and 3 only sees the batch's final state, so the paper's
// deletes-before-inserts rule (§2) is preserved where it matters: an
// updated tuple's old and new version never coexist for validation.
// Planning reads but never changes engine state.
func (e *Engine) planBatch(batch stream.Batch) (batchPlan, error) {
	minNewID := e.store.NextID()
	nextID := minNewID
	deletes := 0
	var ids []int64
	if e.planBorn == nil {
		e.planBorn = make(map[int64][]string)
		e.planDead = make(map[int64]bool)
	}
	clear(e.planBorn)
	clear(e.planDead)
	e.planDeletes = e.planDeletes[:0]
	// planDelete records the death of id, routing pre-existing records to
	// the store-level delete list and batch-born ones to the planner maps.
	planDelete := func(id int64) error {
		if e.planDead[id] {
			return fmt.Errorf("record %d not found", id)
		}
		if _, born := e.planBorn[id]; !born {
			if _, ok := e.store.Record(id); !ok {
				return fmt.Errorf("record %d not found", id)
			}
			e.planDeletes = append(e.planDeletes, id)
		}
		e.planDead[id] = true
		return nil
	}
	// touched collects the columns whose projection the batch may have
	// changed (update-column pruning, Config.UpdateColumnPruning): updates
	// touch only the columns whose value actually differs, while inserts
	// and deletes touch every column.
	full := attrset.Full(e.numAttrs)
	touched := full
	if e.cfg.UpdateColumnPruning {
		touched = attrset.Set{}
	}
	for i, c := range batch.Changes {
		switch c.Kind {
		case stream.Delete:
			if err := planDelete(c.ID); err != nil {
				return batchPlan{}, fmt.Errorf("core: batch change %d: %w", i, err)
			}
			deletes++
			touched = full
		case stream.Update:
			if e.cfg.UpdateColumnPruning && touched != full {
				old := e.planBorn[c.ID]
				if old == nil || e.planDead[c.ID] {
					old, _ = e.store.Values(c.ID)
				}
				for a, v := range old {
					if v != c.Values[a] {
						touched = touched.With(a)
					}
				}
			}
			if err := planDelete(c.ID); err != nil {
				return batchPlan{}, fmt.Errorf("core: batch change %d: %w", i, err)
			}
			deletes++
			id := nextID
			nextID++
			e.planBorn[id] = c.Values
			ids = append(ids, id)
		case stream.Insert:
			id := nextID
			nextID++
			e.planBorn[id] = c.Values
			ids = append(ids, id)
			touched = full
		}
	}
	ins := e.planInserts[:0]
	for _, id := range ids {
		if !e.planDead[id] {
			ins = append(ins, pli.BatchInsert{ID: id, Values: e.planBorn[id]})
		}
	}
	e.planInserts = ins
	return batchPlan{minNewID: minNewID, nextID: nextID, deletes: deletes, ids: ids, ins: ins, touched: touched}, nil
}

// finishBatch closes a successfully applied batch: it derives the batch's
// cover delta from the lattice journals (recorded for AppendCoverDelta)
// and reports the positive-cover part as the FD diff.
func (e *Engine) finishBatch(p batchPlan) Result {
	e.stats.Batches++
	e.recordDelta(p.nextID)
	var added, removed []fd.FD
	for _, c := range e.delta.FDs {
		if c.Now.Present {
			added = append(added, c.FD)
		} else {
			removed = append(removed, c.FD)
		}
	}
	e.stats.FDsAdded += len(added)
	e.stats.FDsRemoved += len(removed)
	return Result{InsertedIDs: p.ids, Added: added, Removed: removed}
}

// CheckInvariants verifies the engine's cross-structure invariants: Pli
// consistency, cover minimality/maximality, and the duality between the
// two covers (inverting the positive cover reproduces the negative cover).
// It is exported for tests and failure-injection suites.
func (e *Engine) CheckInvariants() error {
	if err := e.store.CheckConsistency(); err != nil {
		return err
	}
	if err := e.fds.CheckMinimal(); err != nil {
		return fmt.Errorf("core: positive cover: %w", err)
	}
	if err := e.nonFds.CheckMinimal(); err != nil {
		return fmt.Errorf("core: negative cover: %w", err)
	}
	wantNeg := induct.Invert(e.fds, e.numAttrs).All()
	gotNeg := e.nonFds.All()
	if !fd.Equal(gotNeg, wantNeg) {
		return fmt.Errorf("core: cover duality violated:\n  negative cover: %v\n  inverted positive: %v", gotNeg, wantNeg)
	}
	return nil
}

package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"dynfd/internal/attrset"
	"dynfd/internal/fanout"
	"dynfd/internal/fd"
	"dynfd/internal/pli"
	"dynfd/internal/sched"
	"dynfd/internal/validate"
)

// Batch execution on the work-stealing scheduler (DESIGN.md §13).
//
// Every batch runs as one sched.Session spanning Pli maintenance and both
// lattice sweeps (inserts.go, deletes.go). With Config.Workers 0 or 1 the
// pool has no background workers: maintenance runs first and every
// validation runs inline on the engine goroutine, so each sweep is the
// paper's plain level-wise loop. With more worker slots the stages
// overlap:
//
//   - Per-attribute Pli maintenance is submitted as tasks that publish
//     their attribute's readiness bit when done. Validations only ever read
//     the shards of their candidate's Lhs∪{Rhs}, so the delete sweep starts
//     classifying and validating as soon as those shards are maintained —
//     maintenance of the remaining attributes overlaps validation.
//   - A level's eligible candidates are bundled into stealable chunks
//     (chunkSize) spread across the worker deques; the coordinator resolves
//     them in candidate order during the merge, claiming directly or
//     helping with other chunks while it waits.
//   - While a level merges, the next level is validated speculatively: its
//     pre-existing cover members are previewed before the merge, and fresh
//     candidates created by the merge itself (specializations, promoted
//     generalizations) are submitted as they appear. Speculative outcomes
//     are pure functions of (frozen shard state, Lhs, Rhs, pruning bound),
//     so reusing them cannot change results; entries whose candidate turns
//     stale are simply discarded, and leftovers die with the session.
//
// Worker-count independence: classification runs on the coordinator in
// candidate order and the merge consumes outcomes in candidate order, so
// the covers after every batch are identical for every Workers setting
// (asserted by the equivalence property tests).

// maintTask maintains one Pli shard and publishes its readiness bit, which
// un-gates every validation chunk waiting on the attribute.
type maintTask struct {
	sched.Handle
	store *pli.Store
	ses   *sched.Session
	attr  int
}

func (t *maintTask) Deps() attrset.Set { return attrset.Set{} }

func (t *maintTask) Run(int) {
	t.store.RunAttr(t.attr)
	t.ses.MarkReady(attrset.Of(t.attr))
}

// valChunk is one stealable bundle of candidate validations. Run validates
// every request with the worker slot's scratch; outcomes land in per-
// request slots, read by the coordinator only after Await(chunk) — the
// task-done edge orders the writes before the reads.
type valChunk struct {
	sched.Handle
	deps    attrset.Set
	store   *pli.Store
	scratch *validate.Scratches
	agree   *validate.AgreeIndex // pruned insert-phase chunk; nil validates in full
	reqs    []validate.Request
	outs    []validate.Outcome
}

func (c *valChunk) Deps() attrset.Set { return c.deps }

func (c *valChunk) Run(worker int) {
	sc := c.scratch.At(worker)
	for i, r := range c.reqs {
		c.outs[i] = validate.One(sc, c.store, c.agree, r)
	}
}

// chunkSlot locates one candidate's outcome inside a submitted chunk.
type chunkSlot struct {
	ch  *valChunk
	idx int
}

// chunkBuilder accumulates eligible candidates into chunks and submits each
// chunk as it fills; flush submits the partial tail.
type chunkBuilder struct {
	e     *Engine
	ses   *sched.Session
	size  int
	agree *validate.AgreeIndex // the insert phase's index under cluster pruning
	cur   *valChunk
}

func (b *chunkBuilder) add(cand fd.FD, deps attrset.Set) chunkSlot {
	if b.cur == nil {
		b.cur = &valChunk{store: b.e.store, scratch: b.e.scratch, agree: b.agree}
	}
	b.cur.reqs = append(b.cur.reqs, validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs})
	b.cur.outs = append(b.cur.outs, validate.Outcome{})
	b.cur.deps = b.cur.deps.Union(deps)
	sl := chunkSlot{ch: b.cur, idx: len(b.cur.reqs) - 1}
	if len(b.cur.reqs) >= b.size {
		b.flush()
	}
	return sl
}

func (b *chunkBuilder) flush() {
	if b.cur == nil {
		return
	}
	b.ses.Submit(b.cur)
	b.cur = nil
}

// chunkSize picks the stealable chunk granularity for a level of n
// candidates: about four chunks per worker so stealing has slack, clamped
// to [1, 32]. The stealChunk test seam overrides it.
func (e *Engine) chunkSize(n int) int {
	if e.stealChunk > 0 {
		return e.stealChunk
	}
	c := n / (4 * e.pool.Workers())
	if c < 1 {
		c = 1
	}
	if c > 32 {
		c = 32
	}
	return c
}

// outcomeBuf returns the engine's reusable per-level outcome buffer.
func (e *Engine) outcomeBuf(n int) []scanOutcome {
	if cap(e.scanOutcomes) < n {
		e.scanOutcomes = make([]scanOutcome, n)
	}
	return e.scanOutcomes[:n]
}

// chunkSlots returns the zeroed per-level candidate → chunk slot map.
func (e *Engine) chunkSlots(n int) []chunkSlot {
	if cap(e.slotBuf) < n {
		e.slotBuf = make([]chunkSlot, n)
	}
	s := e.slotBuf[:n]
	clear(s)
	return s
}

// foldOutcome turns one validation result into a merged scan outcome.
func foldOutcome(o *scanOutcome, r validate.Outcome) {
	if r.Valid {
		o.kind = scanValid
	} else {
		o.kind = scanInvalid
		o.witness = r.Witness
	}
}

// resolveOutcome awaits the chunk holding the candidate's validation and
// folds its result into the scan outcome.
func (e *Engine) resolveOutcome(ses *sched.Session, o *scanOutcome, sl chunkSlot) error {
	if err := ses.Await(sl.ch); err != nil {
		return err
	}
	foldOutcome(o, sl.ch.outs[sl.idx])
	return nil
}

// validateInline runs one validation directly on the coordinator — the
// path when the pool has no background workers (Workers 0 or 1), where
// chunking and deque traffic would be pure overhead. A non-nil agree
// answers it as a pruned insert-phase validation. Panic containment
// matches the scheduler's contract so a panicking validator still poisons
// the engine as a *fanout.PanicError instead of crashing the process.
func (e *Engine) validateInline(r validate.Request, agree *validate.AgreeIndex) (o validate.Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &fanout.PanicError{Worker: 0, Value: p, Stack: debug.Stack()}
		}
	}()
	return validate.One(e.scratch.At(0), e.store, agree, r), nil
}

// applyPipelined runs steps 1-3 of ApplyBatch on the scheduler: stage the
// batch, maintain the per-attribute indexes (overlapped with the two
// sweeps when the pool has background workers), run the sweeps, and seal
// the store. Called with the planner's outputs; on return either the batch
// is fully applied or the engine is poisoned (except for StageBatch
// validation failures, which leave the store and engine untouched).
func (e *Engine) applyPipelined(structStart time.Time, minNewID, nextID int64, deletes int, ids []int64, ins []pli.BatchInsert, touched attrset.Set) error {
	if err := e.store.StageBatch(e.planDeletes, ins); err != nil {
		return fmt.Errorf("core: applying batch: %w", err)
	}
	e.scratch.Ensure(e.pool.Workers())
	ses := e.pool.Begin()
	ended := false
	// A coordinator panic unwinds through here before ApplyBatch's recover
	// defer captures it; joining the workers first keeps the parallelism
	// from escaping the call even on the failure path.
	defer func() {
		if !ended {
			_ = ses.End()
		}
	}()
	for a := 0; a < e.numAttrs; a++ {
		ses.Submit(&maintTask{store: e.store, ses: ses, attr: a})
	}
	if e.pool.Background() == 0 {
		// One goroutine gains nothing from overlap: maintain every shard
		// now, so the Figure 1 breakdown bills maintenance to the
		// structure phase rather than to the first sweep that waits on it.
		if err := ses.AwaitReady(attrset.Full(e.numAttrs)); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: applying batch: %w", err)
		}
	}
	e.stats.StructureTime += time.Since(structStart)

	if deletes > 0 {
		start := time.Now()
		if err := e.processDeletes(ses, touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: delete phase: %w", err)
		}
		e.stats.DeletePhaseTime += time.Since(start)
	}
	if len(ids) > 0 {
		start := time.Now()
		if err := e.processInserts(ses, minNewID, ids, touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: insert phase: %w", err)
		}
		e.stats.InsertPhaseTime += time.Since(start)
	}

	finishStart := time.Now()
	if err := ses.AwaitReady(attrset.Full(e.numAttrs)); err != nil {
		e.poisoned = err
		return fmt.Errorf("core: applying batch: %w", err)
	}
	e.stats.ChunksStolen += int(ses.Stolen())
	ended = true
	if err := ses.End(); err != nil {
		e.poisoned = err
		return fmt.Errorf("core: applying batch: %w", err)
	}
	if len(ids) > 0 {
		// Read after End: leftover speculative chunks may still have
		// queried the index until the workers were joined.
		e.stats.AgreePairs += e.agree.Counters().Pairs
	}
	if err := e.store.Finish(); err != nil {
		e.poisoned = err
		return fmt.Errorf("core: applying batch: %w", err)
	}
	if nextID > e.store.NextID() {
		if err := e.store.SetNextID(nextID); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: applying batch: %w", err)
		}
	}
	e.stats.StructureTime += time.Since(finishStart)
	return nil
}

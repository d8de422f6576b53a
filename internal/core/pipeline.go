package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"dynfd/internal/fanout"
	"dynfd/internal/fd"
	"dynfd/internal/pli"
	"dynfd/internal/sched"
	"dynfd/internal/validate"
)

// Batch execution (DESIGN.md §13).
//
// Every batch first maintains the whole Pli store (paper Figure 1 step 1,
// maintainStore): pli.Store.ApplyBatch fans the per-attribute shards out
// across the engine's worker budget and joins before it returns, at every
// worker count. Both lattice sweeps (deletes.go, inserts.go) then run as
// one sched.Session over the maintained, read-only store. With
// Config.Workers 0 or 1 the pool has no background workers and every
// validation runs inline on the engine goroutine, so each sweep is the
// paper's plain level-wise loop. With more worker slots:
//
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

// valChunk is one stealable bundle of candidate validations. Run validates
// every request with the worker slot's scratch; outcomes land in per-
// request slots, read by the coordinator only after Await(chunk) — the
// task-done edge orders the writes before the reads.
type valChunk struct {
	sched.Handle
	store   *pli.Store
	scratch *validate.Scratches
	agree   *validate.AgreeIndex // pruned insert-phase chunk; nil validates in full
	reqs    []validate.Request
	outs    []validate.Outcome
}

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

func (b *chunkBuilder) add(cand fd.FD) chunkSlot {
	if b.cur == nil {
		b.cur = &valChunk{store: b.e.store, scratch: b.e.scratch, agree: b.agree}
	}
	b.cur.reqs = append(b.cur.reqs, validate.Request{Lhs: cand.Lhs, Rhs: cand.Rhs})
	b.cur.outs = append(b.cur.outs, validate.Outcome{})
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

// maintainStore runs Figure 1 step 1 for a planned batch: it applies the
// batch's net deletes and inserts to every Pli shard, fanned out across the
// engine's worker budget inside pli.Store.ApplyBatch, and moves the id
// horizon past ids the batch consumed without keeping. ApplyBatch and
// ApplyPatched both call it before their sweeps or patches; the time since
// structStart, planning included, is billed to StructureTime. A batch the
// store rejects leaves it unchanged and the engine usable. Once the store
// has changed, its only error is a captured maintenance panic, which
// poisons the engine, as does a failure to move the id horizon.
func (e *Engine) maintainStore(p batchPlan, structStart time.Time) error {
	if err := e.store.ApplyBatch(e.planDeletes, p.ins, e.pool.Workers()); err != nil {
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

// runSweeps runs steps 2 and 3 of ApplyBatch over the maintained store as
// one scheduler session: the delete sweep if the batch deletes, then the
// insert sweep if it inserts. On return either both sweeps completed or
// the engine is poisoned.
func (e *Engine) runSweeps(p batchPlan) error {
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
	if p.deletes > 0 {
		start := time.Now()
		if err := e.processDeletes(ses, p.touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: delete phase: %w", err)
		}
		e.stats.DeletePhaseTime += time.Since(start)
	}
	if len(p.ids) > 0 {
		start := time.Now()
		if err := e.processInserts(ses, p.minNewID, p.ids, p.touched); err != nil {
			e.poisoned = err
			return fmt.Errorf("core: insert phase: %w", err)
		}
		e.stats.InsertPhaseTime += time.Since(start)
	}
	e.stats.ChunksStolen += int(ses.Stolen())
	ended = true
	if err := ses.End(); err != nil {
		e.poisoned = err
		return fmt.Errorf("core: applying batch: %w", err)
	}
	if len(p.ids) > 0 {
		// Read after End: leftover speculative chunks may still have
		// queried the index until the workers were joined.
		e.stats.AgreePairs += e.agree.Counters().Pairs
	}
	return nil
}

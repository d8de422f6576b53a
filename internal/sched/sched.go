// Package sched implements the work-stealing candidate scheduler behind
// DynFD's pipelined batch maintenance (DESIGN.md §13). It generalizes the
// fixed per-level fan-out of internal/fanout: instead of slicing one level
// of work across a worker pool and joining at a barrier, a Session accepts
// typed tasks over its whole lifetime, distributes them round-robin across
// per-worker deques, and lets idle workers steal from the back of other
// deques while each deque's owner pops from the front.
//
// The front/back split is deliberate and inverted from the classic
// Chase-Lev discipline: submission order approximates the serial merge
// order, so the deque owner consuming the front stays close to the order
// the coordinator will Await results in, while thieves take the most
// speculative work from the back.
//
// Dependency gating: a task may declare a set of attribute indexes that
// must be published (MarkReady) before it can run — DynFD uses this to
// start candidate validations as soon as the per-attribute Pli shards they
// read are maintained, without waiting for the whole store. Gated tasks
// are parked until their attributes are ready and then pushed to a deque.
// Readiness bits are published with atomic operations, so a task observing
// its dependencies met also observes all memory written before the
// publication (the happens-before edge the race detector recognizes).
//
// Claiming: execution rights are resolved by a compare-and-swap on the
// task's Handle, not by deque membership. The coordinator's Await may
// claim and run a task directly — even one still parked or sitting in
// another worker's deque — and stale deque entries that lost the race are
// simply discarded on pop. This keeps Await latency-optimal (never waits
// for a queue position) and makes unflushed, never-submitted tasks legal:
// Await runs them inline.
//
// A Session is poisoned by the first task panic (or explicit Fail); every
// Await then fails fast and End returns the cause after joining the
// workers. Leftover queued tasks — speculative work the coordinator never
// needed — are discarded by End without running.
package sched

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dynfd/internal/attrset"
	"dynfd/internal/fanout"
)

// Task is one schedulable unit of work. Implementations embed a Handle and
// return it from H. Run is called exactly once, on whichever goroutine
// wins the claim; worker is that goroutine's slot index (0 is the
// coordinator), usable to select per-worker scratch space. Deps returns
// the attribute bits that must be ready before Run may start; the zero Set
// means the task is immediately runnable.
type Task interface {
	H() *Handle
	Deps() attrset.Set
	Run(worker int)
}

// Handle carries a task's scheduling state. Embed it by value and return a
// pointer from H. The zero value is ready to use; Reset re-arms a handle
// for reuse in a later session.
type Handle struct {
	state atomic.Uint32
}

// H returns the handle itself, so embedding satisfies the Task interface.
func (h *Handle) H() *Handle { return h }

// Reset re-arms the handle for reuse. Only call it when no session can
// still reach the task.
func (h *Handle) Reset() { h.state.Store(taskQueued) }

// Done reports whether the task has finished running.
func (h *Handle) Done() bool { return h.state.Load() == taskDone }

const (
	taskQueued uint32 = iota
	taskRunning
	taskDone
)

// Pool describes a worker budget: workers is the total number of execution
// slots including the coordinator (slot 0). A Pool holds no goroutines;
// each Begin spawns workers-1 background goroutines that live exactly as
// long as the Session, so the parallelism never escapes a batch.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given total worker-slot count (min 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's total slot count, including the coordinator.
func (p *Pool) Workers() int { return p.workers }

// Background returns the number of background worker goroutines a Begin
// will spawn. Zero means every task runs inline on the coordinator.
func (p *Pool) Background() int { return p.workers - 1 }

// deque is one worker's task queue. The owner pops the front; thieves pop
// the back. Entries whose task was already claimed elsewhere are discarded
// on pop.
type deque struct {
	mu    sync.Mutex
	items []Task
	head  int
}

func (d *deque) push(t Task) {
	d.mu.Lock()
	if d.head > 64 && d.head*2 >= len(d.items) {
		n := copy(d.items, d.items[d.head:])
		clearTasks(d.items[n:])
		d.items = d.items[:n]
		d.head = 0
	}
	d.items = append(d.items, t)
	d.mu.Unlock()
}

func (d *deque) popFront() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.head < len(d.items) {
		t := d.items[d.head]
		d.items[d.head] = nil
		d.head++
		if t != nil {
			return t
		}
	}
	return nil
}

func (d *deque) popBack() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.head < len(d.items) {
		t := d.items[len(d.items)-1]
		d.items = d.items[:len(d.items)-1]
		if t != nil {
			return t
		}
	}
	return nil
}

func clearTasks(ts []Task) {
	for i := range ts {
		ts[i] = nil
	}
}

// Session is one scheduling episode: Begin, Submit/MarkReady/Await from
// the coordinator (and MarkReady from inside tasks), then End. Submit and
// Await must only be called from the coordinator goroutine.
type Session struct {
	pool   *Pool
	deques []deque
	next   int // round-robin submission cursor (coordinator only)

	ready [len(attrset.Set{})]atomic.Uint64
	stole atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	parked   []Task
	sleepers int
	seq      uint64 // bumped under mu on every wake-worthy event
	err      error
	closed   bool

	wg sync.WaitGroup
}

// Begin starts a session, spawning the pool's background workers.
func (p *Pool) Begin() *Session {
	s := &Session{pool: p, deques: make([]deque, p.workers)}
	s.cond = sync.NewCond(&s.mu)
	for w := 1; w < p.workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s
}

// Stolen returns how many tasks were taken from a deque their taker did
// not own — scheduler telemetry for benchmarks and the stealing tests.
func (s *Session) Stolen() int64 { return s.stole.Load() }

// Err returns the session's poisoning error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Fail poisons the session: every pending and future Await fails with err,
// workers stop picking up new tasks, and End returns err. The first
// failure wins.
func (s *Session) Fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.seq++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// bump records a wake-worthy event (task dispatched, task finished,
// readiness published) and wakes every sleeper. Sleep sites capture seq
// before probing for work and only block if it is still unchanged, so an
// event firing between a failed probe and the Wait is never lost.
func (s *Session) bump() {
	s.mu.Lock()
	s.seq++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// snap returns the current event sequence for a later conditional sleep.
func (s *Session) snap() uint64 {
	s.mu.Lock()
	v := s.seq
	s.mu.Unlock()
	return v
}

// Ready returns the currently published attribute bits.
func (s *Session) Ready() attrset.Set {
	var r attrset.Set
	for w := range s.ready {
		r[w] = s.ready[w].Load()
	}
	return r
}

func (s *Session) readyMet(deps attrset.Set) bool {
	for w, bits := range deps {
		if bits != 0 && s.ready[w].Load()&bits != bits {
			return false
		}
	}
	return true
}

// MarkReady publishes attribute bits: parked tasks whose dependencies are
// now met move to the deques, and sleeping workers are woken. Safe to call
// from inside a running task (this is how per-attribute Pli maintenance
// hands validation work its go signal).
func (s *Session) MarkReady(attrs attrset.Set) {
	for w, bits := range attrs {
		if bits != 0 {
			s.ready[w].Or(bits)
		}
	}
	s.mu.Lock()
	kept := s.parked[:0]
	var unparked []Task
	for _, t := range s.parked {
		if s.readyMet(t.Deps()) {
			unparked = append(unparked, t)
		} else {
			kept = append(kept, t)
		}
	}
	clearTasks(s.parked[len(kept):])
	s.parked = kept
	s.seq++
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, t := range unparked {
		s.dispatch(t)
	}
}

// dispatch pushes a runnable task to the next deque, round-robin. Safe
// from any goroutine (MarkReady inside a task races with Submit).
func (s *Session) dispatch(t Task) {
	s.mu.Lock()
	w := s.next
	s.next = (s.next + 1) % len(s.deques)
	s.mu.Unlock()
	s.deques[w].push(t)
	s.bump()
}

// Submit hands a task to the session. Tasks with unmet dependencies are
// parked until MarkReady satisfies them. Coordinator goroutine only.
func (s *Session) Submit(t Task) {
	if !s.readyMet(t.Deps()) {
		s.mu.Lock()
		// Re-check under the lock: a MarkReady racing with the check above
		// must not strand the task in parked with its bits already set.
		if !s.readyMet(t.Deps()) {
			s.parked = append(s.parked, t)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
	s.dispatch(t)
}

// grab returns a runnable task for the given slot: its own deque's front
// first, then the backs of the other deques. Returns nil when no queued task is claimable right now.
func (s *Session) grab(slot int) Task {
	n := len(s.deques)
	for {
		if t := s.deques[slot].popFront(); t != nil {
			if t.H().state.CompareAndSwap(taskQueued, taskRunning) {
				return t
			}
			continue // lost the claim race to a direct Await; drop it
		}
		break
	}
	for i := 1; i < n; i++ {
		victim := &s.deques[(slot+i)%n]
		for {
			t := victim.popBack()
			if t == nil {
				break
			}
			if t.H().state.CompareAndSwap(taskQueued, taskRunning) {
				s.stole.Add(1)
				return t
			}
		}
	}
	return nil
}

// run executes a claimed task with panic capture; a panic poisons the
// session instead of crashing the process, surfacing as the same
// *fanout.PanicError the fixed fan-out produces so callers (the engine's
// poisoning logic, its tests) need only one failure contract.
func (s *Session) run(t Task, slot int) {
	defer func() {
		if r := recover(); r != nil {
			s.Fail(&fanout.PanicError{Worker: slot, Value: r, Stack: debug.Stack()})
		}
		t.H().state.Store(taskDone)
		s.bump()
	}()
	t.Run(slot)
}

// worker is the background loop of slot w: grab and run until the session
// closes or fails, sleeping while no task is claimable.
func (s *Session) worker(w int) {
	defer s.wg.Done()
	for {
		seq := s.snap()
		t := s.grab(w)
		if t == nil {
			s.mu.Lock()
			if s.closed || s.err != nil {
				s.mu.Unlock()
				return
			}
			// Only sleep if no wake-worthy event fired since before the
			// failed grab; otherwise a dispatch may have raced past us.
			if s.seq == seq {
				s.sleepers++
				s.cond.Wait()
				s.sleepers--
			}
			closed := s.closed || s.err != nil
			s.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		s.run(t, w)
	}
}

// Await drives the session until t has run (returning nil) or the session
// failed (returning the poisoning error). While waiting it helps: it
// claims t directly when runnable — even if t was never submitted or sits
// in another worker's deque — and otherwise runs whatever other task it
// can grab. Coordinator goroutine only.
func (s *Session) Await(t Task) error {
	h := t.H()
	for {
		seq := s.snap()
		if h.state.Load() == taskDone {
			// A task that panicked is marked done only after Fail publishes
			// the error, so this read cannot miss its own task's poisoning.
			return s.Err()
		}
		if err := s.Err(); err != nil {
			return err
		}
		if s.readyMet(t.Deps()) && h.state.CompareAndSwap(taskQueued, taskRunning) {
			s.run(t, 0)
			continue
		}
		if u := s.grab(0); u != nil {
			s.run(u, 0)
			continue
		}
		if err := s.sleep(seq, func() bool { return h.state.Load() == taskDone }); err != nil {
			return err
		}
	}
}

// AwaitReady drives the session until the given attribute bits are
// published, helping like Await. Coordinator goroutine only.
func (s *Session) AwaitReady(attrs attrset.Set) error {
	for {
		seq := s.snap()
		if s.readyMet(attrs) {
			return nil
		}
		if err := s.Err(); err != nil {
			return err
		}
		if u := s.grab(0); u != nil {
			s.run(u, 0)
			continue
		}
		if err := s.sleep(seq, func() bool { return s.readyMet(attrs) }); err != nil {
			return err
		}
	}
}

// sleep blocks the coordinator until a broadcast, with a deadlock guard:
// when the pool has no background workers, nothing can make progress while
// the coordinator sleeps, so waiting would hang forever — that is a
// scheduling bug (a dependency no submitted task publishes) and is
// surfaced as an error instead.
func (s *Session) sleep(seq uint64, done func() bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if done() || s.err != nil || s.seq != seq {
		return s.err
	}
	if s.pool.Background() == 0 {
		err := fmt.Errorf("sched: await would deadlock: no background workers and no runnable task")
		if s.err == nil {
			s.err = err
		}
		return err
	}
	s.sleepers++
	s.cond.Wait()
	s.sleepers--
	return s.err
}

// End closes the session: background workers finish their current task and
// exit, leftover queued tasks are discarded unrun, and the first poisoning
// error (if any) is returned. The coordinator must have Awaited everything
// it needs before calling End.
func (s *Session) End() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

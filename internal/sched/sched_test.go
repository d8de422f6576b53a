package sched

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynfd/internal/attrset"
)

// testTask is a minimal Task: a closure plus optional deps.
type testTask struct {
	Handle
	deps attrset.Set
	fn   func(worker int)
}

func (t *testTask) Deps() attrset.Set { return t.deps }
func (t *testTask) Run(worker int) {
	if t.fn != nil {
		t.fn(worker)
	}
}

func newTask(deps attrset.Set, fn func(worker int)) *testTask {
	return &testTask{deps: deps, fn: fn}
}

func TestRunsEverySubmittedTaskOnce(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 4, 8} {
		s := NewPool(workers).Begin()
		const n = 200
		var runs [n]atomic.Int32
		tasks := make([]*testTask, n)
		for i := range tasks {
			i := i
			tasks[i] = newTask(attrset.Set{}, func(int) { runs[i].Add(1) })
			s.Submit(tasks[i])
		}
		for _, tk := range tasks {
			if err := s.Await(tk); err != nil {
				t.Fatalf("workers=%d: Await: %v", workers, err)
			}
		}
		if err := s.End(); err != nil {
			t.Fatalf("workers=%d: End: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

// Await on a task that was never submitted must run it inline.
func TestAwaitRunsUnsubmittedTaskInline(t *testing.T) {
	t.Parallel()
	s := NewPool(1).Begin()
	defer s.End()
	var ran atomic.Bool
	tk := newTask(attrset.Set{}, func(worker int) {
		if worker != 0 {
			t.Errorf("inline task ran on worker %d", worker)
		}
		ran.Store(true)
	})
	if err := s.Await(tk); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("task did not run")
	}
}

// With one worker slot there are no background goroutines; everything must
// still complete inline through Await's help loop.
func TestSingleSlotInlineExecution(t *testing.T) {
	t.Parallel()
	s := NewPool(1).Begin()
	var order []int
	tasks := make([]*testTask, 10)
	for i := range tasks {
		i := i
		tasks[i] = newTask(attrset.Set{}, func(int) { order = append(order, i) })
		s.Submit(tasks[i])
	}
	for _, tk := range tasks {
		if err := s.Await(tk); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d of 10 tasks", len(order))
	}
	if s.Stolen() != 0 {
		t.Fatalf("single slot stole %d tasks", s.Stolen())
	}
}

// Stealing, proven deterministically: the first submission lands in the
// coordinator's deque (round-robin starts at slot 0), and the coordinator
// then blocks on a plain channel instead of Awaiting — so the ONLY way the
// task can run is a background worker stealing it from deque 0's back.
func TestStealingHappens(t *testing.T) {
	t.Parallel()
	s := NewPool(2).Begin()
	done := make(chan int, 1)
	tk := newTask(attrset.Set{}, func(worker int) { done <- worker })
	s.Submit(tk) // lands in deque 0, owned by the (idle) coordinator
	select {
	case worker := <-done:
		if worker == 0 {
			t.Fatal("task ran on the coordinator, not a thief")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("task was never stolen")
	}
	if err := s.Await(tk); err != nil {
		t.Fatal(err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if s.Stolen() != 1 {
		t.Fatalf("Stolen() = %d, want 1", s.Stolen())
	}
}

// Dependency gating: a task must not run before MarkReady publishes its
// attributes, and the publishing side's writes must be visible to it.
func TestDependencyGating(t *testing.T) {
	t.Parallel()
	s := NewPool(4).Begin()
	defer s.End()

	var published [8]int // written before MarkReady, read by gated tasks
	gated := make([]*testTask, 8)
	for a := range gated {
		a := a
		gated[a] = newTask(attrset.Of(a), func(int) {
			if published[a] != a+1 {
				t.Errorf("attr %d: gated task saw unpublished value %d", a, published[a])
			}
		})
		s.Submit(gated[a])
	}
	// Publish one attribute at a time from producer tasks.
	for a := 0; a < 8; a++ {
		a := a
		s.Submit(newTask(attrset.Set{}, func(int) {
			published[a] = a + 1
			s.MarkReady(attrset.Of(a))
		}))
	}
	for _, tk := range gated {
		if err := s.Await(tk); err != nil {
			t.Fatal(err)
		}
	}
	want := attrset.Of(0, 1, 2, 3, 4, 5, 6, 7)
	if got := s.Ready(); got != want {
		t.Fatalf("Ready() = %v, want %v", got, want)
	}
}

// Awaiting a gated task whose deps are already published must claim it
// directly even though it is still parked (never dispatched).
func TestAwaitClaimsParkedTask(t *testing.T) {
	t.Parallel()
	s := NewPool(1).Begin()
	defer s.End()
	var ran atomic.Bool
	tk := newTask(attrset.Of(3), func(int) { ran.Store(true) })
	s.Submit(tk) // parks: attr 3 not ready
	s.MarkReady(attrset.Of(3))
	if err := s.Await(tk); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("parked task never ran")
	}
}

// AwaitReady helps until the bits are published by a running task.
func TestAwaitReadyHelps(t *testing.T) {
	t.Parallel()
	s := NewPool(1).Begin()
	defer s.End()
	for a := 0; a < 5; a++ {
		a := a
		s.Submit(newTask(attrset.Set{}, func(int) { s.MarkReady(attrset.Of(a)) }))
	}
	if err := s.AwaitReady(attrset.Of(0, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
}

// A panic in a task poisons the session: Await and End surface it, and the
// process does not crash.
func TestPanicPoisonsSession(t *testing.T) {
	t.Parallel()
	s := NewPool(2).Begin()
	bad := newTask(attrset.Set{}, func(int) { panic("kaboom") })
	s.Submit(bad)
	err := s.Await(bad)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Await error = %v, want panic capture", err)
	}
	tk := newTask(attrset.Set{}, nil)
	s.Submit(tk)
	if err := s.Await(tk); err == nil {
		t.Fatal("Await after poisoning should fail")
	}
	if err := s.End(); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("End error = %v, want panic capture", err)
	}
}

func TestFailPoisonsSession(t *testing.T) {
	t.Parallel()
	s := NewPool(2).Begin()
	sentinel := errors.New("boom")
	s.Fail(sentinel)
	tk := newTask(attrset.Set{}, nil)
	s.Submit(tk)
	if err := s.Await(tk); !errors.Is(err, sentinel) {
		t.Fatalf("Await = %v, want %v", err, sentinel)
	}
	if err := s.End(); !errors.Is(err, sentinel) {
		t.Fatalf("End = %v, want %v", err, sentinel)
	}
}

// End discards leftover queued tasks without running them.
func TestEndDiscardsUnawaitedTasks(t *testing.T) {
	t.Parallel()
	s := NewPool(1).Begin() // no background workers: nothing drains the deque
	var ran atomic.Int32
	for i := 0; i < 50; i++ {
		s.Submit(newTask(attrset.Set{}, func(int) { ran.Add(1) }))
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Fatalf("End ran %d discarded tasks", ran.Load())
	}
}

// Awaiting a gated task whose deps nothing will publish must error (not
// hang) when there are no background workers.
func TestAwaitDeadlockGuard(t *testing.T) {
	t.Parallel()
	s := NewPool(1).Begin()
	defer s.End()
	tk := newTask(attrset.Of(7), nil)
	s.Submit(tk)
	err := s.Await(tk)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Await = %v, want deadlock guard error", err)
	}
}

// Handles can be reset and reused across sessions.
func TestHandleReset(t *testing.T) {
	t.Parallel()
	tk := newTask(attrset.Set{}, nil)
	for i := 0; i < 3; i++ {
		s := NewPool(2).Begin()
		s.Submit(tk)
		if err := s.Await(tk); err != nil {
			t.Fatal(err)
		}
		if !tk.H().Done() {
			t.Fatal("task not done after Await")
		}
		if err := s.End(); err != nil {
			t.Fatal(err)
		}
		tk.H().Reset()
	}
}

// Hammer: many tasks with random deps published incrementally, workers
// stealing, coordinator awaiting in order — run under -race in CI.
func TestSchedulerStress(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 4} {
		s := NewPool(workers).Begin()
		const attrs = 16
		var sum atomic.Int64
		tasks := make([]*testTask, 300)
		for i := range tasks {
			i := i
			deps := attrset.Of(i % attrs)
			if i%3 == 0 {
				deps = deps.With((i / 3) % attrs)
			}
			tasks[i] = newTask(deps, func(int) { sum.Add(int64(i)) })
			s.Submit(tasks[i])
		}
		for a := 0; a < attrs; a++ {
			a := a
			s.Submit(newTask(attrset.Set{}, func(int) { s.MarkReady(attrset.Of(a)) }))
		}
		want := int64(0)
		for i, tk := range tasks {
			if err := s.Await(tk); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			want += int64(i)
		}
		if err := s.End(); err != nil {
			t.Fatal(err)
		}
		if got := sum.Load(); got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

package sched

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testTask is a minimal Task: a closure.
type testTask struct {
	Handle
	fn func(worker int)
}

func (t *testTask) Run(worker int) {
	if t.fn != nil {
		t.fn(worker)
	}
}

func newTask(fn func(worker int)) *testTask {
	return &testTask{fn: fn}
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
			tasks[i] = newTask(func(int) { runs[i].Add(1) })
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
	tk := newTask(func(worker int) {
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
		tasks[i] = newTask(func(int) { order = append(order, i) })
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
	tk := newTask(func(worker int) { done <- worker })
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

// A panic in a task poisons the session: Await and End surface it, and the
// process does not crash.
func TestPanicPoisonsSession(t *testing.T) {
	t.Parallel()
	s := NewPool(2).Begin()
	bad := newTask(func(int) { panic("kaboom") })
	s.Submit(bad)
	err := s.Await(bad)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Await error = %v, want panic capture", err)
	}
	tk := newTask(nil)
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
	tk := newTask(nil)
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
		s.Submit(newTask(func(int) { ran.Add(1) }))
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Fatalf("End ran %d discarded tasks", ran.Load())
	}
}

// A task that awaits itself from inside its own Run can never finish;
// without background workers that must error (not hang).
func TestAwaitDeadlockGuard(t *testing.T) {
	t.Parallel()
	s := NewPool(1).Begin()
	defer s.End()
	var tk *testTask
	var inner error
	tk = newTask(func(int) { inner = s.Await(tk) })
	s.Submit(tk)
	if err := s.Await(tk); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Await = %v, want deadlock guard error", err)
	}
	if inner == nil || !strings.Contains(inner.Error(), "deadlock") {
		t.Fatalf("inner Await = %v, want deadlock guard error", inner)
	}
}

// Handles can be reset and reused across sessions.
func TestHandleReset(t *testing.T) {
	t.Parallel()
	tk := newTask(nil)
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

// Hammer: many tasks submitted in waves between awaits, workers stealing,
// coordinator awaiting in order; each task reads a value the coordinator
// wrote before submitting it, and the coordinator reads each task's write
// after Await — run under -race in CI.
func TestSchedulerStress(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 4} {
		s := NewPool(workers).Begin()
		const n, wave = 300, 16
		var sum atomic.Int64
		inputs := make([]int64, n)
		outputs := make([]int64, n)
		tasks := make([]*testTask, n)
		submit := func(i int) {
			inputs[i] = int64(i)
			tasks[i] = newTask(func(int) {
				outputs[i] = inputs[i] + 1
				sum.Add(inputs[i])
			})
			s.Submit(tasks[i])
		}
		for i := 0; i < wave; i++ {
			submit(i)
		}
		want := int64(0)
		for i, tk := range tasks {
			// Keep a wave of tasks in flight ahead of the awaited one.
			if next := i + wave; next < n {
				submit(next)
			}
			if err := s.Await(tk); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if outputs[i] != int64(i)+1 {
				t.Fatalf("workers=%d: task %d output %d not visible after Await", workers, i, outputs[i])
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

package fanout

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:"), so tests can tell inline calls from fanned
// ones.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// inlineRecorder returns a ForEach callback that records the call order
// and fails the test if a call runs on another goroutine than the caller.
func inlineRecorder(t *testing.T, order *[]int) func(i int) {
	t.Helper()
	caller := goid()
	return func(i int) {
		if g := goid(); g != caller {
			t.Errorf("item %d ran on goroutine %s, want the caller's %s", i, g, caller)
		}
		*order = append(*order, i)
	}
}

func TestForEachCoversAllItems(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 100
		var hits [n]atomic.Int32
		fn := func(i int) { hits[i].Add(1) }
		var order []int
		if workers <= 1 {
			// workers <= 1 runs inline, in index order.
			rec := inlineRecorder(t, &order)
			fn = func(i int) { rec(i); hits[i].Add(1) }
		}
		if err := ForEach(n, workers, fn); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: inline ForEach out of order: %v", workers, order)
			}
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunSlotBounds(t *testing.T) {
	t.Parallel()
	const n, workers = 64, 4
	var bad atomic.Int32
	if err := Run(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Errorf("%d calls saw an out-of-range worker slot", bad.Load())
	}
}

func TestRunCapturesWorkerPanic(t *testing.T) {
	t.Parallel()
	err := Run(8, 4, func(_, i int) {
		if i == 3 {
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("Value = %v, want boom", pe.Value)
	}
	if pe.Worker < 0 || pe.Worker >= 4 {
		t.Errorf("Worker = %d, out of range", pe.Worker)
	}
	if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "boom") {
		t.Errorf("Error() = %q, want panic value and stack", pe.Error())
	}
}

func TestRunCapturesInlinePanic(t *testing.T) {
	t.Parallel()
	ran := 0
	caller := goid()
	err := Run(8, 1, func(_, i int) {
		if g := goid(); g != caller {
			t.Errorf("serial run called item %d on goroutine %s, want the caller's %s", i, g, caller)
		}
		ran++
		if i == 2 {
			panic("serial boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Worker != 0 {
		t.Errorf("Worker = %d, want 0", pe.Worker)
	}
	if ran != 3 {
		t.Errorf("serial run executed %d items after panic, want stop at 3", ran)
	}
}

func TestRunRemainingWorkersDrain(t *testing.T) {
	t.Parallel()
	const n = 200
	var hits atomic.Int32
	if err := Run(n, 4, func(_, i int) {
		if i == 0 {
			panic("early")
		}
		hits.Add(1)
	}); err == nil {
		t.Fatal("panic not surfaced")
	}
	// The surviving workers must have kept draining the cursor: all items
	// except the panicking one complete even though one worker died early.
	if got := hits.Load(); got < n-4 {
		t.Errorf("only %d items completed after one worker panicked", got)
	}
}

func TestForEachSerialOrder(t *testing.T) {
	t.Parallel()
	var order []int
	if err := ForEach(5, 1, inlineRecorder(t, &order)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("serial ForEach ran %d of 5 items", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial ForEach out of order: %v", order)
		}
	}
}

func TestForEachEmptyAndTiny(t *testing.T) {
	t.Parallel()
	if err := ForEach(0, 8, func(int) { t.Error("called for n=0") }); err != nil {
		t.Errorf("n=0: err=%v", err)
	}
	// Workers clamp to n, so one item runs inline.
	var order []int
	if err := ForEach(1, 8, inlineRecorder(t, &order)); err != nil {
		t.Errorf("n=1: err=%v", err)
	}
	if len(order) != 1 {
		t.Errorf("n=1: %d calls", len(order))
	}
}

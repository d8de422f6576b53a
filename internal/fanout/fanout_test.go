package fanout

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dynfd/internal/fanout/fanouttest"
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
	for _, procs := range []int{1, 3, 16} {
		fanouttest.SetGOMAXPROCS(t, procs)
		const n = 100
		var hits [n]atomic.Int32
		fn := func(i int) { hits[i].Add(1) }
		var order []int
		if procs == 1 {
			// GOMAXPROCS 1 runs inline, in index order.
			rec := inlineRecorder(t, &order)
			fn = func(i int) { rec(i); hits[i].Add(1) }
		}
		if err := ForEach(n, fn); err != nil {
			t.Fatalf("GOMAXPROCS=%d: err = %v", procs, err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("GOMAXPROCS=%d: inline ForEach out of order: %v", procs, order)
			}
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("GOMAXPROCS=%d: item %d ran %d times", procs, i, got)
			}
		}
	}
}

func TestForEachCapturesWorkerPanic(t *testing.T) {
	fanouttest.SetGOMAXPROCS(t, 4)
	err := ForEach(8, func(i int) {
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

func TestForEachCapturesInlinePanic(t *testing.T) {
	fanouttest.SetGOMAXPROCS(t, 1)
	ran := 0
	caller := goid()
	err := ForEach(8, func(i int) {
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

func TestForEachRemainingWorkersDrain(t *testing.T) {
	fanouttest.SetGOMAXPROCS(t, 4)
	const n = 200
	var hits atomic.Int32
	if err := ForEach(n, func(i int) {
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
	fanouttest.SetGOMAXPROCS(t, 1)
	var order []int
	if err := ForEach(5, inlineRecorder(t, &order)); err != nil {
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
	fanouttest.SetGOMAXPROCS(t, 8)
	if err := ForEach(0, func(int) { t.Error("called for n=0") }); err != nil {
		t.Errorf("n=0: err=%v", err)
	}
	// The width clamps to n, so one item runs inline.
	var order []int
	if err := ForEach(1, inlineRecorder(t, &order)); err != nil {
		t.Errorf("n=1: err=%v", err)
	}
	if len(order) != 1 {
		t.Errorf("n=1: %d calls", len(order))
	}
}

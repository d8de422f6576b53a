package fanout

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllItems(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 100
		var hits [n]atomic.Int32
		fanned, err := ForEach(n, workers, func(i int) { hits[i].Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if want := workers > 1; fanned != want {
			t.Errorf("workers=%d: fanned = %v, want %v", workers, fanned, want)
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
	if _, err := Run(n, workers, func(w, i int) {
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
	fanned, err := Run(8, 4, func(_, i int) {
		if i == 3 {
			panic("boom")
		}
	})
	if !fanned {
		t.Error("fanned = false, want true")
	}
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
	fanned, err := Run(8, 1, func(_, i int) {
		ran++
		if i == 2 {
			panic("serial boom")
		}
	})
	if fanned {
		t.Error("fanned = true for serial run")
	}
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
	if _, err := Run(n, 4, func(_, i int) {
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
	if _, err := ForEach(5, 1, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial ForEach out of order: %v", order)
		}
	}
}

func TestForEachEmptyAndTiny(t *testing.T) {
	t.Parallel()
	if fanned, err := ForEach(0, 8, func(int) { t.Error("called for n=0") }); fanned || err != nil {
		t.Errorf("n=0: fanned=%v err=%v", fanned, err)
	}
	calls := 0
	if fanned, err := ForEach(1, 8, func(i int) { calls++ }); fanned || err != nil {
		t.Errorf("n=1: fanned=%v err=%v (workers clamp to n)", fanned, err)
	}
	if calls != 1 {
		t.Errorf("n=1: %d calls", calls)
	}
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/pli"
	"dynfd/internal/stream"
	"dynfd/internal/validate"
)

func TestResolveWorkers(t *testing.T) {
	t.Parallel()
	if got := resolveWorkers(0); got != 1 {
		t.Errorf("resolveWorkers(0) = %d, want 1 (inline)", got)
	}
	if got := resolveWorkers(3); got != 3 {
		t.Errorf("resolveWorkers(3) = %d", got)
	}
	if got := resolveWorkers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("resolveWorkers(-1) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
}

// parallelConfig returns the paper's configuration with a worker budget.
func parallelConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// TestParallelPaperBatch replays the paper's Table 1 batch across worker
// counts and checks every engine lands on the same covers as the default
// (Workers: 0, inline) engine.
func TestParallelPaperBatch(t *testing.T) {
	t.Parallel()
	batch := stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 2},
		{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
		{Kind: stream.Insert, Values: []string{"Marie", "Gray", "14469", "Potsdam"}},
	}}
	inline := mustBootstrap(t, DefaultConfig())
	if _, err := inline.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, -1} {
		par := mustBootstrap(t, parallelConfig(workers))
		if _, err := par.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if got, want := par.FDs(), inline.FDs(); !fd.Equal(got, want) {
			t.Errorf("workers=%d: FDs = %v, want %v", workers, got, want)
		}
		if got, want := par.NonFDs(), inline.NonFDs(); !fd.Equal(got, want) {
			t.Errorf("workers=%d: NonFDs = %v, want %v", workers, got, want)
		}
		if err := par.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestWorkersSurviveSnapshot checks the knob round-trips through
// snapshot/restore like every other config field.
func TestWorkersSurviveSnapshot(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, parallelConfig(4))
	restored, err := Restore(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Config().Workers; got != 4 {
		t.Errorf("restored Workers = %d, want 4", got)
	}
	if got := restored.workers; got != 4 {
		t.Errorf("restored effective workers = %d, want 4", got)
	}
}

// TestParallelEngineRepeatedBatches runs a longer alternating
// insert/delete workload on a parallel engine purely for -race coverage
// of the maintenance fan-out (correctness is covered by the oracle-backed
// workloads and the equivalence property test).
func TestParallelEngineRepeatedBatches(t *testing.T) {
	t.Parallel()
	runWorkload(t, parallelConfig(4), 11, 5, 20, 10, 8, 3)
}

// TestMaintenanceBeforeValidation pins Figure 1's order at Workers 4: every
// attribute's Pli maintenance has run, and the store's batch is fully
// applied, before the batch's first validation starts. Column k is unique,
// so no maximal non-FD involves it and the delete sweep's candidates never
// read its shard; its maintenance sleeps, so a sweep that started on
// candidates whose own shards were ready would validate while k is still
// pending. The hooks are process-wide, so the test does not run in
// parallel.
func TestMaintenanceBeforeValidation(t *testing.T) {
	const k = 3
	rel := dataset.New("r", []string{"a", "b", "c", "k"})
	for i, row := range [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"}, {"3", "y", "q"}, {"3", "z", "r"},
	} {
		if err := rel.Append(append(row, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Bootstrap(rel, parallelConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var maintained atomic.Int32
	pli.SetApplyAttrTestHook(func(a int) {
		if a == k {
			time.Sleep(20 * time.Millisecond)
		}
		maintained.Add(1)
	})
	defer pli.SetApplyAttrTestHook(nil)
	var (
		once        sync.Once
		validations atomic.Int32
		atFirst     int32
		storeErr    error
	)
	validate.SetTestHook(func(validate.Request) {
		validations.Add(1)
		once.Do(func() {
			atFirst = maintained.Load()
			storeErr = e.store.CheckConsistency()
		})
	})
	defer validate.SetTestHook(nil)
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 1},
		{Kind: stream.Insert, Values: []string{"2", "x", "q", "9"}},
	}}); err != nil {
		t.Fatal(err)
	}
	if validations.Load() == 0 || e.workers < 2 {
		t.Fatalf("precondition: %d validations, %d maintenance workers", validations.Load(), e.workers)
	}
	if atFirst != int32(e.NumAttrs()) {
		t.Errorf("first validation ran after %d of %d attributes were maintained", atFirst, e.NumAttrs())
	}
	if storeErr != nil {
		t.Errorf("first validation ran on a store mid-batch: %v", storeErr)
	}
}

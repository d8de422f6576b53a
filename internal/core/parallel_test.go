package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynfd/internal/dataset"
	"dynfd/internal/fanout/fanouttest"
	"dynfd/internal/fd"
	"dynfd/internal/pli"
	"dynfd/internal/stream"
	"dynfd/internal/validate"
)

// TestParallelPaperBatch replays the paper's Table 1 batch at several
// GOMAXPROCS and checks every engine lands on the same covers as one
// maintained inline at GOMAXPROCS 1.
func TestParallelPaperBatch(t *testing.T) {
	batch := stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 2},
		{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
		{Kind: stream.Insert, Values: []string{"Marie", "Gray", "14469", "Potsdam"}},
	}}
	fanouttest.SetGOMAXPROCS(t, 1)
	inline := mustBootstrap(t, DefaultConfig())
	if _, err := inline.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 8} {
		fanouttest.SetGOMAXPROCS(t, procs)
		par := mustBootstrap(t, DefaultConfig())
		if _, err := par.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if got, want := par.FDs(), inline.FDs(); !fd.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: FDs = %v, want %v", procs, got, want)
		}
		if got, want := par.NonFDs(), inline.NonFDs(); !fd.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: NonFDs = %v, want %v", procs, got, want)
		}
		if err := par.CheckInvariants(); err != nil {
			t.Errorf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
}

// TestParallelEngineRepeatedBatches runs a longer alternating
// insert/delete workload at GOMAXPROCS 4 purely for -race coverage of the
// maintenance fan-out (correctness is covered by the oracle-backed
// workloads and the equivalence property test).
func TestParallelEngineRepeatedBatches(t *testing.T) {
	fanouttest.SetGOMAXPROCS(t, 4)
	runWorkload(t, DefaultConfig(), 11, 5, 20, 10, 8, 3)
}

// TestMaintenanceBeforeValidation pins Figure 1's order at GOMAXPROCS 4: every
// attribute's Pli maintenance has run, and the store's batch is fully
// applied, before the batch's first validation starts. Column k is unique,
// so no maximal non-FD involves it and the delete sweep's candidates never
// read its shard; its maintenance sleeps, so a sweep that started on
// candidates whose own shards were ready would validate while k is still
// pending. The hooks and GOMAXPROCS are process-wide, so the test does
// not run in parallel.
func TestMaintenanceBeforeValidation(t *testing.T) {
	fanouttest.SetGOMAXPROCS(t, 4)
	const k = 3
	rel := dataset.New("r", []string{"a", "b", "c", "k"})
	for i, row := range [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"}, {"3", "y", "q"}, {"3", "z", "r"},
	} {
		if err := rel.Append(append(row, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Bootstrap(rel, DefaultConfig())
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
	if validations.Load() == 0 {
		t.Fatal("precondition: the batch ran no validations")
	}
	if atFirst != int32(e.NumAttrs()) {
		t.Errorf("first validation ran after %d of %d attributes were maintained", atFirst, e.NumAttrs())
	}
	if storeErr != nil {
		t.Errorf("first validation ran on a store mid-batch: %v", storeErr)
	}
}

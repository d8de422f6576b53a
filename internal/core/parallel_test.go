package core

import (
	"runtime"
	"testing"

	"dynfd/internal/fd"
	"dynfd/internal/stream"
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
// (Workers: 0, inline) engine, and that levels ran in parallel exactly when
// there are background workers (ParallelLevels telemetry).
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
		// workers < 0 resolves to GOMAXPROCS, which may be 1 on a
		// single-CPU machine — judge fan-out by the effective count.
		if resolveWorkers(workers) >= 2 {
			if par.Stats().ParallelLevels == 0 {
				t.Errorf("workers=%d: no level ran in parallel", workers)
			}
		} else if par.Stats().ParallelLevels != 0 {
			t.Errorf("workers=%d: ParallelLevels = %d on a single-worker engine",
				workers, par.Stats().ParallelLevels)
		}
	}
	if inline.Stats().ParallelLevels != 0 {
		t.Errorf("workers=0 engine reported ParallelLevels = %d", inline.Stats().ParallelLevels)
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
	if got := restored.pool.Workers(); got != 4 {
		t.Errorf("restored effective workers = %d, want 4", got)
	}
}

// TestParallelEngineRepeatedBatches runs a longer alternating
// insert/delete workload on a parallel engine purely for -race coverage
// of the scheduler (correctness is covered by the oracle-backed
// workloads and the equivalence property test).
func TestParallelEngineRepeatedBatches(t *testing.T) {
	t.Parallel()
	runWorkload(t, parallelConfig(4), 11, 5, 20, 10, 8, 3)
}

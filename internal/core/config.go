package core

import "time"

// Config selects DynFD's pruning strategies and tuning constants. The four
// strategy switches correspond to the paper's ablation dimensions (§6.5):
// every combination yields the same covers — strategies trade work, never
// results — which the property tests assert.
type Config struct {
	// ClusterPruning skips, during insert-side re-validation, all pivot
	// clusters that contain no newly inserted record (paper §4.2).
	ClusterPruning bool
	// ViolationSearch enables the progressive windowed record-pair search
	// for FD violations when the insert-side lattice traversal becomes
	// inefficient (paper §4.3). When disabled, the baseline naive sampling
	// of §6.5 is used instead: changed records are compared only to their
	// direct neighbours.
	ViolationSearch bool
	// ValidationPruning attaches a violating record pair to every maximal
	// non-FD and skips its delete-side re-validation while both witnesses
	// are still alive (paper §5.2).
	ValidationPruning bool
	// DepthFirstSearch enables the optimistic depth-first generalization
	// search when many non-FDs of one level become valid (paper §5.3).
	DepthFirstSearch bool

	// EfficiencyThreshold is the fraction of invalid (resp. valid)
	// validations per lattice level that triggers the violation search
	// (resp. the depth-first search), and the minimum per-comparison yield
	// that keeps the violation search running. The paper hard-codes 10%.
	EfficiencyThreshold float64
	// DFSSampleRate is the fraction of newly valid FDs used as seeds for
	// the optimistic depth-first searches. The paper hard-codes 10%.
	DFSSampleRate float64
	// Seed drives the deterministic pseudo-random DFS seed sampling.
	Seed int64

	// KeyColumns declares columns with a database uniqueness constraint.
	// Any FD whose Lhs contains a declared key trivially holds (every Lhs
	// group is a single record), so its re-validation is skipped entirely.
	// This implements open question 2 of the paper's §8. Declaring a
	// column that is not actually unique yields undefined results.
	KeyColumns []int
	// UpdateColumnPruning skips re-validation of candidates none of whose
	// columns were touched by the batch: an update that leaves a column
	// set's projection unchanged cannot affect any dependency over those
	// columns. Inserts and deletes touch every column; the pruning
	// therefore engages only for update-only batches, where it exploits
	// that real updates rarely alter all attribute values — open question
	// 3 of the paper's §8.
	UpdateColumnPruning bool

	// Workers sets the engine's worker budget (DESIGN.md §13). At every
	// setting Pli maintenance runs to completion before either lattice
	// sweep. 0 (the default) and 1 mean one slot, the engine goroutine
	// itself: maintenance and every validation run inline, with no extra
	// goroutines. n > 1 maintains up to n attribute shards at once, chunks
	// candidate validations across n worker slots' deques, and validates
	// the next lattice level speculatively while the current one merges. n < 0 uses one
	// slot per available CPU (GOMAXPROCS). All settings produce identical
	// FD and non-FD covers after every batch, asserted by the equivalence
	// property tests. The knob changes wall-clock time only. (At one slot
	// the work counters repeat exactly from run to run, since validation
	// witnesses are a pure function of the store; with more slots the
	// counters that follow scheduling, such as stolen chunks and
	// speculation, may differ between runs.)
	Workers int
}

// DefaultConfig returns the paper's configuration: all four pruning
// strategies enabled with 10% thresholds.
func DefaultConfig() Config {
	return Config{
		ClusterPruning:      true,
		ViolationSearch:     true,
		ValidationPruning:   true,
		DepthFirstSearch:    true,
		EfficiencyThreshold: 0.1,
		DFSSampleRate:       0.1,
	}
}

// normalize fills unset tuning constants with the paper defaults.
func (c Config) normalize() Config {
	if c.EfficiencyThreshold <= 0 {
		c.EfficiencyThreshold = 0.1
	}
	if c.DFSSampleRate <= 0 {
		c.DFSSampleRate = 0.1
	}
	return c
}

// Stats accumulates observable work counters across batches. They feed the
// in-depth performance analysis of the benchmark harness (§6.5) and are
// not needed for correctness.
type Stats struct {
	Batches            int // batches processed
	Validations        int // full candidate validations executed
	SkippedValidations int // validations skipped by either sweep: untouched columns, delete-side annotations, insert-side declared keys
	Comparisons        int // record pairs compared by the violation search
	// AgreePairs counts the record pairs compared to build the insert
	// phase's agree-mask indexes. It repeats exactly for equal histories
	// only at Workers 0 or 1: with more workers, speculative validations may
	// build indexes the sequential order would not, so two runs of one
	// history differ by a fraction of a percent. Compare it across runs
	// or nodes only at Workers 0 or 1.
	AgreePairs             int
	ViolationSearchRuns    int // times the progressive search was triggered
	DepthFirstSearchRuns   int // times the optimistic DFS was triggered
	ParallelLevels         int // lattice levels whose validations went to the worker pool (Workers > 1)
	ChunksStolen           int // scheduler chunks taken from another worker's deque
	SpeculativeValidations int // validations submitted ahead of their level's classification
	SpeculativeHits        int // speculative validations whose result was consumed
	FDsAdded               int // cumulative minimal FDs added
	FDsRemoved             int // cumulative minimal FDs removed
	CoverPatches           int // batches applied by patching a cover delta (ApplyPatched) instead of the sweeps

	// Wall-clock breakdown of ApplyBatch, cumulative across batches. A
	// patched batch (ApplyPatched) bills its store maintenance to
	// StructureTime and its negative and positive cover patches to the
	// delete and insert phase.
	StructureTime   time.Duration // Pli/record updates (Figure 1 step 1)
	DeletePhaseTime time.Duration // negative-cover processing (step 2)
	InsertPhaseTime time.Duration // positive-cover processing (step 3)

	// DeltaPruned is always zero and nothing writes it. It counted the
	// insert-side validations skipped by a retired batch-delta pruning;
	// the ledger benchmark (bench/ledger/trace.go) still reads it, so it
	// stays until that benchmark next changes.
	DeltaPruned int
}

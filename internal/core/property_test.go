package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/induct"
	"dynfd/internal/oracle"
	"dynfd/internal/stream"
)

// workload drives a random sequence of batches against an engine and a
// shadow row model, and verifies exactness against the brute-force oracle
// plus all structural invariants after every batch.
func runWorkload(t *testing.T, cfg Config, seed int64, attrs, initialRows, batches, batchSize, domain int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cols := make([]string, attrs)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	randRow := func() []string {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(domain))
		}
		return row
	}
	rel := dataset.New("t", cols)
	for i := 0; i < initialRows; i++ {
		if err := rel.Append(randRow()); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Bootstrap(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shadow model: id -> row.
	model := make(map[int64][]string)
	var live []int64
	for i := range rel.Rows {
		model[int64(i)] = rel.Rows[i]
		live = append(live, int64(i))
	}

	for b := 0; b < batches; b++ {
		var changes []stream.Change
		pendingDeletes := map[int64]bool{}
		var pendingRows [][]string
		for c := 0; c < batchSize; c++ {
			op := r.Intn(4)
			if len(live) == 0 {
				op = 0
			}
			switch op {
			case 0, 1: // insert
				row := randRow()
				changes = append(changes, stream.Change{Kind: stream.Insert, Values: row})
				pendingRows = append(pendingRows, row)
			case 2: // delete a random live record not already touched
				id := live[r.Intn(len(live))]
				if pendingDeletes[id] {
					continue
				}
				pendingDeletes[id] = true
				changes = append(changes, stream.Change{Kind: stream.Delete, ID: id})
			case 3: // update
				id := live[r.Intn(len(live))]
				if pendingDeletes[id] {
					continue
				}
				pendingDeletes[id] = true
				row := randRow()
				changes = append(changes, stream.Change{Kind: stream.Update, ID: id, Values: row})
				pendingRows = append(pendingRows, row)
			}
		}
		res, err := e.ApplyBatch(stream.Batch{Changes: changes})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		// Update the shadow model.
		for id := range pendingDeletes {
			delete(model, id)
		}
		if len(res.InsertedIDs) != len(pendingRows) {
			t.Fatalf("batch %d: %d inserted ids for %d rows", b, len(res.InsertedIDs), len(pendingRows))
		}
		for i, id := range res.InsertedIDs {
			model[id] = pendingRows[i]
		}
		live = live[:0]
		for id := range model {
			live = append(live, id)
		}

		// Exactness: engine FDs == oracle FDs of the current rows.
		rows := make([][]string, 0, len(model))
		for _, row := range model {
			rows = append(rows, row)
		}
		want := oracle.MinimalFDs(rows, attrs)
		got := e.FDs()
		if !fd.Equal(got, want) {
			t.Fatalf("batch %d (cfg %+v): FDs diverged\n got  %v\n want %v\n rows %v",
				b, cfg, got, want, rows)
		}
		// Negative cover exactness.
		wantNeg := oracle.MaximalNonFDs(rows, attrs)
		gotNeg := e.NonFDs()
		if !fd.Equal(gotNeg, wantNeg) {
			t.Fatalf("batch %d (cfg %+v): non-FDs diverged\n got  %v\n want %v\n rows %v",
				b, cfg, gotNeg, wantNeg, rows)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("batch %d (cfg %+v): %v", b, cfg, err)
		}
	}
}

func TestRandomWorkloadDefaultConfig(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 8; seed++ {
		runWorkload(t, DefaultConfig(), seed, 4, 10, 12, 6, 3)
	}
}

func TestRandomWorkloadWiderSchema(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 4; seed++ {
		runWorkload(t, DefaultConfig(), 100+seed, 6, 20, 8, 10, 3)
	}
}

func TestRandomWorkloadLargeBatches(t *testing.T) {
	t.Parallel()
	runWorkload(t, DefaultConfig(), 7, 5, 5, 5, 40, 4)
}

func TestRandomWorkloadTinyDomainForcesChurn(t *testing.T) {
	t.Parallel()
	// Domain 2 produces many FD flips per batch, stressing the violation
	// search and the depth-first searches.
	runWorkload(t, DefaultConfig(), 21, 5, 15, 10, 8, 2)
}

func TestRandomWorkloadAllConfigs(t *testing.T) {
	t.Parallel()
	for i, cfg := range allConfigs() {
		cfg.Seed = int64(i)
		runWorkload(t, cfg, int64(40+i), 4, 8, 8, 6, 3)
	}
}

func TestRandomWorkloadFromEmpty(t *testing.T) {
	t.Parallel()
	runWorkload(t, DefaultConfig(), 99, 4, 0, 10, 8, 3)
}

func TestRandomWorkloadDeleteHeavy(t *testing.T) {
	t.Parallel()
	// Start large, then delete-heavy batches shrink the relation, forcing
	// many non-FD -> FD transitions.
	r := rand.New(rand.NewSource(3))
	const attrs = 5
	cols := make([]string, attrs)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	rel := dataset.New("t", cols)
	for i := 0; i < 60; i++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(3))
		}
		_ = rel.Append(row)
	}
	e, err := Bootstrap(rel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64][]string)
	for i := range rel.Rows {
		model[int64(i)] = rel.Rows[i]
	}
	for len(model) > 0 {
		var changes []stream.Change
		n := 0
		for id := range model {
			changes = append(changes, stream.Change{Kind: stream.Delete, ID: id})
			delete(model, id)
			if n++; n >= 7 {
				break
			}
		}
		if _, err := e.ApplyBatch(stream.Batch{Changes: changes}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]string, 0, len(model))
		for _, row := range model {
			rows = append(rows, row)
		}
		if got, want := e.FDs(), oracle.MinimalFDs(rows, attrs); !fd.Equal(got, want) {
			t.Fatalf("delete-heavy: FDs diverged with %d rows left\n got  %v\n want %v", len(rows), got, want)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// runEquivalence drives one random batch sequence through a reference
// engine with one worker slot (Workers: 1, every validation inline on the
// engine goroutine) and an engine with the given worker budget, and
// asserts both produce identical FD and non-FD covers after every batch —
// the worker-count independence of the scheduler (DESIGN.md §13).
func runEquivalence(t *testing.T, seed int64, workers, attrs, initialRows, batches, batchSize, domain int) {
	t.Helper()
	refCfg := DefaultConfig()
	refCfg.Workers = 1
	cfg := DefaultConfig()
	cfg.Workers = workers
	runPairEquivalence(t, seed, attrs, initialRows, batches, batchSize, domain, refCfg, cfg)
}

// runPairEquivalence is the general form: drive identical batches through
// two engines with arbitrary configurations and assert identical covers
// and diffs after every batch. Both engines see byte-identical batches;
// surrogate ids are assigned deterministically, so the id streams must
// agree too. The reference engine's covers are also checked against the
// brute-force oracle over a shadow copy of the live rows, so a bug shared
// by both engines cannot hide. tune, if given, adjusts the second engine
// after bootstrap (test seams such as stealChunk). Returns the second
// engine for stats inspection.
func runPairEquivalence(t *testing.T, seed int64, attrs, initialRows, batches, batchSize, domain int, refCfg, cfg Config, tune ...func(*Engine)) *Engine {
	t.Helper()
	workers := cfg.Workers
	r := rand.New(rand.NewSource(seed))
	cols := make([]string, attrs)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	randRow := func() []string {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(domain))
		}
		return row
	}
	rel := dataset.New("t", cols)
	for i := 0; i < initialRows; i++ {
		if err := rel.Append(randRow()); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := Bootstrap(rel, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Bootstrap(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tune {
		f(other)
	}
	// Shadow model: id -> row; live lists its ids in ascending order.
	model := make(map[int64][]string)
	var live []int64
	for i := 0; i < initialRows; i++ {
		model[int64(i)] = rel.Rows[i]
		live = append(live, int64(i))
	}
	for b := 0; b < batches; b++ {
		var changes []stream.Change
		pendingDeletes := map[int64]bool{}
		var pendingRows [][]string
		for c := 0; c < batchSize; c++ {
			op := r.Intn(4)
			if len(live) == 0 {
				op = 0
			}
			switch op {
			case 0, 1:
				row := randRow()
				changes = append(changes, stream.Change{Kind: stream.Insert, Values: row})
				pendingRows = append(pendingRows, row)
			case 2:
				id := live[r.Intn(len(live))]
				if pendingDeletes[id] {
					continue
				}
				pendingDeletes[id] = true
				changes = append(changes, stream.Change{Kind: stream.Delete, ID: id})
			case 3:
				id := live[r.Intn(len(live))]
				if pendingDeletes[id] {
					continue
				}
				pendingDeletes[id] = true
				row := randRow()
				changes = append(changes, stream.Change{Kind: stream.Update, ID: id, Values: row})
				pendingRows = append(pendingRows, row)
			}
		}
		batch := stream.Batch{Changes: changes}
		resR, err := ref.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d (reference): %v", b, err)
		}
		resO, err := other.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d (workers=%d): %v", b, workers, err)
		}
		if fmt.Sprint(resR.InsertedIDs) != fmt.Sprint(resO.InsertedIDs) {
			t.Fatalf("batch %d: id streams diverged: reference %v, workers=%d %v",
				b, resR.InsertedIDs, workers, resO.InsertedIDs)
		}
		if got, want := other.FDs(), ref.FDs(); !fd.Equal(got, want) {
			t.Fatalf("batch %d (seed %d, workers %d): FD covers diverged\n reference %v\n got       %v",
				b, seed, workers, want, got)
		}
		if got, want := other.NonFDs(), ref.NonFDs(); !fd.Equal(got, want) {
			t.Fatalf("batch %d (seed %d, workers %d): non-FD covers diverged\n reference %v\n got       %v",
				b, seed, workers, want, got)
		}
		if !fd.Equal(resR.Added, resO.Added) || !fd.Equal(resR.Removed, resO.Removed) {
			t.Fatalf("batch %d: diffs diverged: reference +%v -%v, workers=%d +%v -%v",
				b, resR.Added, resR.Removed, workers, resO.Added, resO.Removed)
		}

		for id := range pendingDeletes {
			delete(model, id)
		}
		for i, id := range resR.InsertedIDs {
			model[id] = pendingRows[i]
		}
		live = live[:0]
		rows := make([][]string, 0, len(model))
		for id, row := range model {
			live = append(live, id)
			rows = append(rows, row)
		}
		// Map order would make the victim choice above nondeterministic.
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		if got, want := ref.FDs(), oracle.MinimalFDs(rows, attrs); !fd.Equal(got, want) {
			t.Fatalf("batch %d (seed %d): reference FDs diverged from the oracle\n got  %v\n want %v",
				b, seed, got, want)
		}
		if got, want := ref.NonFDs(), oracle.MaximalNonFDs(rows, attrs); !fd.Equal(got, want) {
			t.Fatalf("batch %d (seed %d): reference non-FDs diverged from the oracle\n got  %v\n want %v",
				b, seed, got, want)
		}
	}
	if err := other.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return other
}

// TestSerialParallelEquivalence is the acceptance property of the
// scheduler: across 50 randomized batch sequences, a Workers: 4 engine
// yields identical covers to the single-goroutine Workers: 1 engine after
// every single batch, and the latter matches the oracle.
func TestSerialParallelEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long equivalence sweep; run without -short")
	}
	for seed := int64(0); seed < 50; seed++ {
		// Vary the workload shape with the seed: schema width 4-6,
		// 0-24 initial rows, domain 2-4 (small domains maximize FD churn).
		attrs := 4 + int(seed%3)
		initialRows := int(seed%5) * 6
		domain := 2 + int(seed%3)
		runEquivalence(t, 1000+seed, 4, attrs, initialRows, 5, 8, domain)
	}
}

// TestSerialParallelEquivalenceShort is the -short variant of the sweep:
// a handful of sequences so `go test -race -short` still cross-checks a
// Workers: 4 engine against the Workers: 1 engine and the oracle.
func TestSerialParallelEquivalenceShort(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 6; seed++ {
		runEquivalence(t, 2000+seed, 4, 4+int(seed%3), int(seed%3)*8, 4, 6, 2+int(seed%3))
	}
}

// TestEquivalenceAcrossWorkerCounts pins the guarantee for other worker
// budgets: the Workers: 0 default, the GOMAXPROCS setting (-1), and an
// oversubscribed pool.
func TestEquivalenceAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	for i, workers := range []int{0, 2, 8, -1} {
		runEquivalence(t, int64(3000+i), workers, 5, 12, 5, 8, 3)
	}
}

// TestEquivalenceForcedStealing pins the scheduler's stealing paths:
// one-candidate chunks (the stealChunk seam) make every candidate its own
// stealable task, so with several workers the deques drain through steals
// constantly. Covers must stay identical to the reference engine, and
// across the sweep stealing must actually have happened — otherwise the
// test is not exercising what it claims to. Whether a worker steals
// depends on thread timing, which other tests running beside this one
// can starve, so after the six seeds the sweep goes on with further
// seeds, each checked against the reference too, until one steal is
// recorded or maxStealSeeds seeds have run.
func TestEquivalenceForcedStealing(t *testing.T) {
	t.Parallel()
	const maxStealSeeds = 60
	refCfg := DefaultConfig()
	refCfg.Workers = 1
	stolen := 0
	for seed := int64(0); seed < 6 || stolen == 0 && seed < maxStealSeeds; seed++ {
		cfg := DefaultConfig()
		cfg.Workers = 4
		e := runPairEquivalence(t, 4000+seed, 4+int(seed%3), 12, 5, 8, 2+int(seed%3), refCfg, cfg,
			func(e *Engine) { e.stealChunk = 1 })
		stolen += e.Stats().ChunksStolen
	}
	if stolen == 0 {
		t.Error("forced-stealing sweep recorded zero stolen chunks; stealing paths not exercised")
	}
}

// TestCoverDualityMaintained double-checks that the maintained negative
// cover always equals the inversion of the maintained positive cover —
// even in the middle of long workloads (CheckInvariants does this too; the
// explicit test documents the invariant).
func TestCoverDualityMaintained(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	batches := []stream.Batch{
		{Changes: []stream.Change{{Kind: stream.Insert, Values: []string{"A", "B", "14482", "Potsdam"}}}},
		{Changes: []stream.Change{{Kind: stream.Delete, ID: 1}}},
		{Changes: []stream.Change{{Kind: stream.Update, ID: 3, Values: []string{"Anna", "Scott", "14482", "Potsdam"}}}},
	}
	for i, b := range batches {
		if _, err := e.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		want := induct.Invert(e.fds, e.numAttrs).All()
		if got := e.NonFDs(); !fd.Equal(got, want) {
			t.Fatalf("batch %d: duality broken", i)
		}
	}
}

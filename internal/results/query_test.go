package results_test

import (
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/core"
	"dynfd/internal/datagen"
	"dynfd/internal/results"
	"dynfd/internal/stream"
)

// replayed bootstraps an engine over the named dataset scaled by factor
// and applies its first batches of batchSize changes, the shape of a
// ledger tenant mid-run.
func replayed(tb testing.TB, name string, factor float64, batches, batchSize int) (*core.Engine, []string) {
	tb.Helper()
	p, err := datagen.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := datagen.Generate(p.Scaled(factor))
	if err != nil {
		tb.Fatal(err)
	}
	e, err := core.Bootstrap(ds.Relation, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	for _, batch := range stream.FixedBatches(ds.Changes, batchSize)[:batches] {
		if _, err := e.ApplyBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return e, ds.Relation.Columns
}

// BenchmarkSnapshotQueries measures the three queries the service ledger
// reads after every write — the FD listing, the key check Unique(c0, c1)
// and Violations(c1 → c2, max 10) — and the unary IND listing, each on a
// fresh, never-queried snapshot per iteration, as a read that follows a
// commit sees it. INDs is the first, memoizing call: it reads every
// attribute's value set from the frozen records and directory. The
// tenants are artist ×0.2 after 50 100-change batches (artist-ingest) and
// disease ×4 after 300 20-change batches (disease-serve). The snapshot
// build is outside the timer. Run with -benchmem.
func BenchmarkSnapshotQueries(b *testing.B) {
	for _, tc := range []struct {
		name               string
		factor             float64
		batches, batchSize int
	}{
		{"artist", 0.2, 50, 100},
		{"disease", 4, 300, 20},
	} {
		e, cols := replayed(b, tc.name, tc.factor, tc.batches, tc.batchSize)
		prev := e.BuildResults(nil, 0, cols, nil, nil)
		queries := []struct {
			name string
			run  func(s *results.Snapshot)
		}{
			{"FDs", func(s *results.Snapshot) { s.FDs() }},
			{"Unique", func(s *results.Snapshot) { s.Unique(attrset.Of(0, 1)) }},
			{"Violations", func(s *results.Snapshot) { s.Violations(attrset.Of(1), 2, 10) }},
			{"INDs", func(s *results.Snapshot) { s.INDs() }},
		}
		for _, q := range queries {
			b.Run(tc.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					snap := e.BuildResults(prev, uint64(i+1), cols, nil, nil)
					b.StartTimer()
					q.run(snap)
				}
			})
		}
	}
}

package results_test

import (
	"fmt"
	"runtime"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/core"
	"dynfd/internal/datagen"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
	"dynfd/internal/results"
	"dynfd/internal/stream"
)

// artist returns the synthetic artist dataset (18 columns) with its
// relation scaled to rows records.
func artist(tb testing.TB, rows int) *datagen.Dataset {
	tb.Helper()
	p, err := datagen.ByName("artist")
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := datagen.Generate(p.Scaled(float64(rows) / float64(p.InitialRows)))
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// buildBytes loads an artist relation of the given size into a store,
// builds a snapshot, applies one 100-change batch that moves every
// attribute's value set (50 deletes, 50 inserts of fresh values), and
// returns the bytes one Build of the successor snapshot allocates, plus
// the store's total distinct values.
func buildBytes(t *testing.T, rows int) (perCall float64, distinct int) {
	t.Helper()
	ds := artist(t, rows)
	cols := ds.Relation.Columns
	store := pli.NewStore(len(cols))
	inserts := make([]pli.BatchInsert, len(ds.Relation.Rows))
	for i, row := range ds.Relation.Rows {
		inserts[i] = pli.BatchInsert{ID: int64(i), Values: row}
	}
	if err := store.ApplyBatch(nil, inserts); err != nil {
		t.Fatal(err)
	}
	cover := lattice.New(len(cols))
	nonFDs := func() []fd.FD { return nil }
	prev := results.Build(nil, 0, cols, store, cover, nonFDs, attrset.Set{})

	var deletes []int64
	inserts = inserts[:0]
	for i := 0; i < 50; i++ {
		deletes = append(deletes, int64(i*(rows/50)))
		row := make([]string, len(cols))
		for a := range row {
			row[a] = fmt.Sprintf("fresh-%d-%d", i, a)
		}
		inserts = append(inserts, pli.BatchInsert{ID: store.NextID() + int64(i), Values: row})
	}
	if err := store.ApplyBatch(deletes, inserts); err != nil {
		t.Fatal(err)
	}
	for a := range cols {
		distinct += store.Index(a).NumClusters()
	}

	const calls = 20
	snaps := make([]*results.Snapshot, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range snaps {
		snaps[i] = results.Build(prev, 1, cols, store, cover, nonFDs, attrset.Set{})
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls, distinct
}

// TestBuildAllocatesPerPageNotPerValue pins Build's allocation to
// O(attributes + directory pages): no distinct value is copied, so twice
// the rows must cost less than twice the bytes, and far less than one
// string header (16 bytes) per distinct value.
func TestBuildAllocatesPerPageNotPerValue(t *testing.T) {
	small, smallDistinct := buildBytes(t, 10000)
	large, largeDistinct := buildBytes(t, 20000)
	t.Logf("Build: %.0f B/call at 10k rows (%d distinct values), %.0f B/call at 20k rows (%d)",
		small, smallDistinct, large, largeDistinct)
	if large >= 2*small {
		t.Errorf("Build bytes grew %.2fx from 10k to 20k rows, want < 2x", large/small)
	}
	if perValue := large / float64(largeDistinct); perValue > 1 {
		t.Errorf("Build allocates %.2f B per distinct value, want <= 1", perValue)
	}
}

// BenchmarkBuildResults measures one snapshot build on the artist-ingest
// shape: an engine over 10,000 artist rows (18 columns) after one
// 100-change batch of the artist history, building the successor of the
// pre-batch snapshot with the batch's FD diff. Run with -benchmem; B/op is
// the number the paged cluster directory keeps independent of the
// distinct-value count.
func BenchmarkBuildResults(b *testing.B) {
	ds := artist(b, 10000)
	e, err := core.Bootstrap(ds.Relation, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cols := ds.Relation.Columns
	prev := e.BuildResults(nil, 0, cols, nil, nil)
	res, err := e.ApplyBatch(stream.Batch{Changes: ds.Changes[:100]})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BuildResults(prev, 1, cols, res.Added, res.Removed)
	}
}

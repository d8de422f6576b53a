package pli

import (
	"fmt"
	"testing"

	"dynfd/internal/datagen"
)

func BenchmarkInsert(b *testing.B) {
	const attrs = 10
	s := NewStore(attrs)
	row := make([]string, attrs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := range row {
			row[a] = fmt.Sprint((i * (a + 3)) % 1000)
		}
		if _, err := s.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertDeleteCycle(b *testing.B) {
	const attrs = 10
	s := NewStore(attrs)
	row := make([]string, attrs)
	// Steady state: keep ~1000 records alive.
	var ids []int64
	for i := 0; i < 1000; i++ {
		for a := range row {
			row[a] = fmt.Sprint((i * (a + 3)) % 200)
		}
		id, _ := s.Insert(row)
		ids = append(ids, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Delete(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
		for a := range row {
			row[a] = fmt.Sprint((i * (a + 7)) % 200)
		}
		id, err := s.Insert(row)
		if err != nil {
			b.Fatal(err)
		}
		ids[i%len(ids)] = id
	}
}

// lookupStore builds the lookup benchmark store and a set of query rows
// (all present in the store), so the timed loops do no string formatting.
func lookupStore(b *testing.B) (*Store, [][]string) {
	b.Helper()
	const attrs = 6
	s := NewStore(attrs)
	queries := make([][]string, 512)
	for i := 0; i < 5000; i++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint((i * (a + 3)) % 500)
		}
		if _, err := s.Insert(row); err != nil {
			b.Fatal(err)
		}
		if i < len(queries) {
			queries[i] = row
		}
	}
	return s, queries
}

func BenchmarkLookup(b *testing.B) {
	s, queries := lookupStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupAppend is BenchmarkLookup through the buffer-reusing
// AppendLookup fast path: zero allocations per call once the buffer is
// warm.
func BenchmarkLookupAppend(b *testing.B) {
	s, queries := lookupStore(b)
	buf := make([]int64, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = s.AppendLookup(buf[:0], queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// batchWorkload builds the delete-heavy maintenance scenario: a populated
// store with one heavily skewed attribute (few huge clusters), plus the
// ids of one batch worth of deletes and the rows of one batch worth of
// inserts. Per-record splicing pays O(deletes × cluster size) on the
// skewed attribute; batch compaction pays one sweep per touched cluster.
func batchWorkload(n, batch, attrs int) (rows [][]string, delIdx []int, insRows [][]string) {
	rows = make([][]string, n)
	for i := range rows {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint((i * (a + 3)) % (4 + a*500))
		}
		rows[i] = row
	}
	delIdx = make([]int, batch)
	for j := range delIdx {
		delIdx[j] = j * 7 % n
	}
	insRows = make([][]string, batch)
	for j := range insRows {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(((n + j) * (a + 3)) % (4 + a*500))
		}
		insRows[j] = row
	}
	return rows, delIdx, insRows
}

// BenchmarkStoreApplyBatch measures one maintenance batch (2000 deletes +
// 2000 inserts over 20000 records, skewed clusters) through the paths the
// engine can take: single-element Insert/Delete calls, serial ApplyBatch,
// and worker-pool ApplyBatch. Store setup is excluded from the timing.
func BenchmarkStoreApplyBatch(b *testing.B) {
	const (
		attrs = 8
		n     = 20000
		batch = 2000
	)
	rows, delIdx, insRows := batchWorkload(n, batch, attrs)
	build := func() (*Store, []int64) {
		s := NewStore(attrs)
		ids := make([]int64, n)
		for j, row := range rows {
			id, err := s.Insert(row)
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = id
		}
		return s, ids
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, ids := build()
			b.StartTimer()
			for _, j := range delIdx {
				if err := s.Delete(ids[j]); err != nil {
					b.Fatal(err)
				}
			}
			for _, row := range insRows {
				if _, err := s.Insert(row); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{0, 4} {
		b.Run(fmt.Sprintf("batch/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, ids := build()
				deletes := make([]int64, len(delIdx))
				for k, j := range delIdx {
					deletes[k] = ids[j]
				}
				inserts := make([]BatchInsert, len(insRows))
				next := s.NextID()
				for k, row := range insRows {
					inserts[k] = BatchInsert{ID: next + int64(k), Values: row}
				}
				b.StartTimer()
				if err := s.ApplyBatch(deletes, inserts, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreLoad fills an empty store with the bootstrap relation of
// artist ×0.2 (10,000 rows × 18 columns, the tenant the service ledger
// stands up) the three ways a store can be stood up: ApplyBatch of every
// row (how bootstrap and restore loaded it before Store.Load), the bulk
// loader from checkpoint codes, and the bulk loader's rows front end, each
// at one and two workers. Coding the rows for input=codes is excluded
// from the timing; a checkpoint decode yields the codes.
func BenchmarkStoreLoad(b *testing.B) {
	p, err := datagen.ByName("artist")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scaled(0.2)
	p.Changes = 0
	ds, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	rows, numAttrs := ds.Relation.Rows, ds.Relation.NumColumns()
	ids := make([]int64, len(rows))
	ins := make([]BatchInsert, len(rows))
	for i, row := range rows {
		ids[i] = int64(i)
		ins[i] = BatchInsert{ID: int64(i), Values: row}
	}
	rel := codeRows(ids, rows, numAttrs)
	for _, in := range []struct {
		name string
		load func(s *Store, workers int) error
	}{
		{"applybatch", func(s *Store, workers int) error { return s.ApplyBatch(nil, ins, workers) }},
		{"codes", func(s *Store, workers int) error { return s.Load(rel, workers) }},
		{"rows", func(s *Store, workers int) error { return s.LoadRows(ids, rows, workers) }},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("input=%s/workers=%d", in.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := in.load(NewStore(numAttrs), workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStoreApplyBatchDeleteOnly isolates the delete side: batch
// compaction versus per-record splicing on the skewed clusters.
func BenchmarkStoreApplyBatchDeleteOnly(b *testing.B) {
	const (
		attrs = 8
		n     = 20000
		batch = 2000
	)
	rows, delIdx, _ := batchWorkload(n, batch, attrs)
	build := func() (*Store, []int64) {
		s := NewStore(attrs)
		ids := make([]int64, n)
		for j, row := range rows {
			id, err := s.Insert(row)
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = id
		}
		return s, ids
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, ids := build()
			b.StartTimer()
			for _, j := range delIdx {
				if err := s.Delete(ids[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, ids := build()
			deletes := make([]int64, len(delIdx))
			for k, j := range delIdx {
				deletes[k] = ids[j]
			}
			b.StartTimer()
			if err := s.ApplyBatch(deletes, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package validate

import (
	"fmt"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

func benchStore(b *testing.B, rows, attrs, domain int) *pli.Store {
	b.Helper()
	s := pli.NewStore(attrs)
	row := make([]string, attrs)
	for i := 0; i < rows; i++ {
		for a := range row {
			row[a] = fmt.Sprint((i*(a+13) + a) % domain)
		}
		if _, err := s.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkFDValidation measures full candidate validation (the static /
// delete-side cost).
func BenchmarkFDValidation(b *testing.B) {
	s := benchStore(b, 5000, 8, 50)
	lhs := attrset.Of(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FD(s, lhs, 2, NoPruning)
	}
}

// BenchmarkValidateFD measures the kernel with a warm caller-owned Scratch
// — the steady-state shape of every hot path (worker slots in Fan, the
// engine's serial slot). Sub-benchmarks cover the three kernel
// specializations: rest width 0 (direct probe), 1 (single cluster id) and
// ≥2 (flattened tuples). All must report 0 allocs/op; alloc_test.go pins
// that, this benchmark tracks the cycle cost.
func BenchmarkValidateFD(b *testing.B) {
	s := benchStore(b, 5000, 8, 50)
	for _, bc := range []struct {
		name string
		lhs  attrset.Set
	}{
		{"rest0", attrset.Of(0)},
		{"rest1", attrset.Of(0, 1)},
		{"rest3", attrset.Of(0, 1, 3, 4)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc := NewScratch()
			sc.FD(s, bc.lhs, 2, NoPruning) // warm the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.FD(s, bc.lhs, 2, NoPruning)
			}
		})
	}
}

// BenchmarkFDValidationClusterPruned measures the insert-side validation
// with cluster pruning — the steady-state case the paper's §4.2 targets.
// batch=1 makes only the newest record of 5,000 new (50 values per
// attribute); batch=100 makes the newest 100 of 10,000 new, with 2,000
// pivot clusters of which the batch touches 100, the shape of a bulk
// ingest batch. The candidate is valid, so every selected cluster is
// grouped in full.
func BenchmarkFDValidationClusterPruned(b *testing.B) {
	for _, bc := range []struct {
		name                 string
		rows, domain, newRec int
	}{
		{"batch=1", 5000, 50, 1},
		{"batch=100", 10000, 2000, 100},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := benchStore(b, bc.rows, 8, bc.domain)
			minNew := s.NextID() - int64(bc.newRec)
			lhs := attrset.Of(0, 1)
			if ok, _ := FD(s, lhs, 2, NoPruning); !ok {
				b.Fatal("benchmark candidate must be valid")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FD(s, lhs, 2, minNew)
			}
		})
	}
}

func BenchmarkUniqueValidation(b *testing.B) {
	s := benchStore(b, 5000, 8, 50)
	cols := attrset.Of(0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Unique(s, cols, NoPruning)
	}
}

func BenchmarkAgreeSet(b *testing.B) {
	s := benchStore(b, 2, 64, 3)
	r0, _ := s.Record(0)
	r1, _ := s.Record(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AgreeSet(r0, r1)
	}
}

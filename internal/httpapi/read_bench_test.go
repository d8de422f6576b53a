package httpapi

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"dynfd"
	"dynfd/internal/datagen"
	"dynfd/internal/runtime"
	"dynfd/internal/stream"
)

// ledgerTenant opens a runtime holding tenant "t": the named dataset
// scaled by factor, bootstrapped and then replayed batches batches of
// batchSize changes through Runtime.Apply, the shape of a ledger tenant
// mid-run. It returns the runtime, the columns and the last batch's
// apply result.
func ledgerTenant(b *testing.B, name string, factor float64, batches, batchSize int) (*runtime.Runtime, []string, runtime.ApplyResult) {
	b.Helper()
	p, err := datagen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := datagen.Generate(p.Scaled(factor))
	if err != nil {
		b.Fatal(err)
	}
	rt, err := runtime.Open(runtime.Config{DataRoot: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rt.Close() })
	cols := ds.Relation.Columns
	if err := rt.Create("t", cols, ds.Relation.Rows); err != nil {
		b.Fatal(err)
	}
	var last runtime.ApplyResult
	for _, batch := range stream.FixedBatches(ds.Changes, batchSize)[:batches] {
		changes := make([]dynfd.Change, len(batch.Changes))
		for i, c := range batch.Changes {
			switch c.Kind {
			case stream.Insert:
				changes[i] = dynfd.Insert(c.Values...)
			case stream.Delete:
				changes[i] = dynfd.Delete(c.ID)
			default:
				changes[i] = dynfd.Update(c.ID, c.Values...)
			}
		}
		if last, err = rt.Apply("t", changes); err != nil {
			b.Fatal(err)
		}
	}
	return rt, cols, last
}

// BenchmarkReadHandlers serves the service ledger's three reads — /fds,
// /keys?columns=c0,c1 and /violations?lhs=c1&rhs=c2&max=10 — through the
// HTTP handler into a writer that discards the body, and writes the
// ledger's batch ack (the last replayed batch's apply result), on artist
// ×0.2 after 50 100-change batches (artist-ingest) and disease ×4 after
// 300 20-change batches (disease-serve). Every iteration reads the same
// published snapshot, so /keys answers from the snapshot's memoized
// Unique; BenchmarkSnapshotQueries (internal/results) prices the queries
// on fresh snapshots. Run with -benchmem.
func BenchmarkReadHandlers(b *testing.B) {
	for _, tc := range []struct {
		name               string
		factor             float64
		batches, batchSize int
	}{
		{"artist", 0.2, 50, 100},
		{"disease", 4, 300, 20},
	} {
		rt, c, ack := ledgerTenant(b, tc.name, tc.factor, tc.batches, tc.batchSize)
		h := New(rt).Handler()
		base := "/v1/tenants/t/"
		reads := []struct{ name, path string }{
			{"fds", base + "fds"},
			{"keys", base + "keys?columns=" + url.QueryEscape(c[0]+","+c[1])},
			{"violations", base + "violations?" + url.Values{"lhs": {c[1]}, "rhs": {c[2]}, "max": {"10"}}.Encode()},
		}
		for _, rd := range reads {
			b.Run(tc.name+"/"+rd.name, func(b *testing.B) {
				w := &discardWriter{h: http.Header{}}
				r := httptest.NewRequest(http.MethodGet, rd.path, nil)
				h.ServeHTTP(w, r)
				if w.status != http.StatusOK {
					b.Fatalf("GET %s: status %d", rd.path, w.status)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.ServeHTTP(w, r)
				}
			})
		}
		b.Run(tc.name+"/ack", func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeBatchAck(w, ack)
			}
		})
	}
}

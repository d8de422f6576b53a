package httpapi

import (
	"testing"

	"dynfd"
	"dynfd/internal/datagen"
	"dynfd/internal/stream"
)

// artistChanges is the first 100-change batch of the artist history at
// the ledger's artist-ingest size (datagen artist x0.2: 10,000 rows x 18
// columns).
func artistChanges(tb testing.TB) []stream.Change {
	tb.Helper()
	p, err := datagen.ByName("artist")
	if err != nil {
		tb.Fatal(err)
	}
	p = p.Scaled(0.2)
	p.Changes = 100
	d, err := datagen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return d.Changes
}

// changesSink keeps the benchmarked decodes from being optimized away.
var changesSink []dynfd.Change

// BenchmarkDecodeBatch decodes the JSON body of one artist-shaped
// 100-change batch, the request body of POST /v1/tenants/{t}/batch on
// the ledger's artist-ingest workload. decoder=parse is decodeBatch,
// decoder=encoding-json the reflection decoder it replaced.
func BenchmarkDecodeBatch(b *testing.B) {
	body := artistBody(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte, int) ([]dynfd.Change, error)
	}{
		{"parse", decodeBatch},
		{"encoding-json", referenceDecodeBatch},
	} {
		b.Run("decoder="+bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if changesSink, err = bc.decode(body, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

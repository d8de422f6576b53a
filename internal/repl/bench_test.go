package repl_test

import (
	"fmt"
	"testing"
	"time"

	"dynfd"
	"dynfd/internal/core"
	"dynfd/internal/datagen"
	"dynfd/internal/durable"
	"dynfd/internal/faultio"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// BenchmarkFollowerReadLag measures end-to-end replication visibility: the
// time from a batch being acknowledged on the primary until a follower's
// lock-free read surface serves it — one committed batch per iteration,
// spin-waiting on the follower's published sequence. This is the
// bounded-staleness latency a `?max_lag=0` reader pays on a healthy
// stream (WAL append + fsync on the primary, frame push over HTTP, replay
// + publish on the follower).
func BenchmarkFollowerReadLag(b *testing.B) {
	src, client := startPrimary(b, 1024, -1)
	mon, _, stop := runFollower(b, client, b.TempDir(), testCols)
	defer stop()

	// Converge once before timing so setup traffic is excluded.
	src.apply(b, []dynfd.Change{dynfd.Insert("seed", "seed", "seed")})
	waitSeq(b, mon, src.mon.Seq())

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.apply(b, []dynfd.Change{dynfd.Insert(
			fmt.Sprint("k", i%97), fmt.Sprint("v", i%13), fmt.Sprint("w", i%7))})
		target := src.mon.Seq()
		for mon.Seq() < target {
			time.Sleep(20 * time.Microsecond)
		}
	}
	b.StopTimer()
}

// BenchmarkFollowerApply measures one follower's engine work per
// replicated frame — ApplyReplicated on an in-memory durable engine, so
// no fsync — for artist-shaped 100-change batches on 10,000 rows × 18
// columns. delta=on applies the frames as the primary ships them, with
// the cover-delta trailer, so the follower maintains its Pli store and
// patches its covers; delta=off strips the trailer, so the follower
// re-runs both lattice sweeps as a follower of an older primary does.
// The follower restarts from the primary's bootstrap checkpoint (outside
// the timer) whenever the recorded frames run out. engine-ms/op is the
// follower engine's own time per frame (core.Stats phase times, the
// ledger's repl.follower_engine_ms_per_batch); the rest of ns/op is frame
// decoding, the WAL append and the result snapshot.
func BenchmarkFollowerApply(b *testing.B) {
	const batches = 40
	p, err := datagen.ByName("artist")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scaled(0.2) // 10,000 rows, as the ledger's artist-ingest workload
	p.Changes = 100 * batches
	d, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = -1 // the daemon default, as in the ledger
	opts := durable.Options{Columns: d.Relation.Columns, Config: cfg, CheckpointEvery: -1}
	popts := opts
	feed := repl.NewFeed(0, batches+1)
	popts.Feed = feed
	primary, err := durable.Open(faultio.NewMem(), popts)
	if err != nil {
		b.Fatal(err)
	}
	if err := primary.Bootstrap(d.Relation.Rows); err != nil {
		b.Fatal(err)
	}
	boot, bootSeq, err := primary.CheckpointBlob(primary.Seq())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if _, err := primary.Apply(stream.Batch{Changes: d.Changes[100*i : 100*(i+1)]}); err != nil {
			b.Fatal(err)
		}
	}
	frames, _, err := feed.Next(bootSeq)
	if err != nil || len(frames) != batches {
		b.Fatalf("recorded %d frames (err %v), want %d", len(frames), err, batches)
	}

	for _, mode := range []string{"on", "off"} {
		b.Run("delta="+mode, func(b *testing.B) {
			payloads := make([][]byte, len(frames))
			for i, fr := range frames {
				payloads[i] = fr.Payload
				if mode == "off" {
					payloads[i], _, _ = wal.SplitTrailer(fr.Payload)
				}
			}
			var fol *durable.Engine
			var engine time.Duration
			phases := func() time.Duration {
				s := fol.Core().Stats()
				return s.StructureTime + s.DeletePhaseTime + s.InsertPhaseTime
			}
			restart := func() {
				if fol != nil {
					engine += phases()
					fol.Close()
				}
				if fol, err = durable.Open(faultio.NewMem(), opts); err != nil {
					b.Fatal(err)
				}
				if err := fol.InstallCheckpoint(boot); err != nil {
					b.Fatal(err)
				}
			}
			restart()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(payloads)
				if k == 0 && i > 0 {
					b.StopTimer()
					restart()
					b.StartTimer()
				}
				if err := fol.ApplyReplicated(frames[k].Seq, payloads[k]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			engine += phases()
			fol.Close()
			b.ReportMetric(float64(engine)/float64(time.Millisecond)/float64(b.N), "engine-ms/op")
		})
	}
}

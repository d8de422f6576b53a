package dynfd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openBenchMonitor opens a durable monitor over a fresh directory with a
// small seeded relation, for the read-path and group-commit benchmarks.
func openBenchMonitor(b *testing.B, opts ...Option) *DurableMonitor {
	b.Helper()
	mon, err := OpenDurable(b.TempDir(), []string{"zip", "city", "state"}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]string, 0, 200)
	for i := 0; i < 200; i++ {
		rows = append(rows, []string{fmt.Sprint(10000 + i), fmt.Sprint("city", i%17), fmt.Sprint("s", i%5)})
	}
	if err := mon.Bootstrap(rows); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { mon.Close() })
	return mon
}

// streamWrites runs writer goroutines committing small batches until stop,
// staging under a shared lock and waiting outside it — the runtime's
// pattern, so commits coalesce in the group committer.
func streamWrites(b *testing.B, mon *DurableMonitor, writers int, stop *atomic.Bool) *sync.WaitGroup {
	b.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				time.Sleep(100 * time.Microsecond) // pace the writer
				mu.Lock()
				_, commit, err := mon.ApplyStaged(
					Insert(fmt.Sprintf("w%d-%d", w, i), fmt.Sprint("city", i%17), fmt.Sprint("s", i%5)))
				mu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
				if err := commit.Wait(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	return &wg
}

// BenchmarkReadWhileWrite measures the snapshot read path across a readers
// x writers matrix: ns/op is the aggregate per-read cost, "reads/s" the
// total read throughput, and "max-stall-ns" the worst single read — the
// number that exposes any read queuing behind a commit. Each read loads
// the published snapshot and answers a cover listing plus a (memoized) key
// check from it.
func BenchmarkReadWhileWrite(b *testing.B) {
	for _, writers := range []int{0, 1} {
		for _, readers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("writers=%d/readers=%d", writers, readers), func(b *testing.B) {
				mon := openBenchMonitor(b, WithCheckpointEvery(64))
				var stop atomic.Bool
				wg := streamWrites(b, mon, writers, &stop)

				var maxStall atomic.Int64
				var rg sync.WaitGroup
				per := b.N / readers
				if per == 0 {
					per = 1
				}
				b.ResetTimer()
				start := time.Now()
				for r := 0; r < readers; r++ {
					rg.Add(1)
					go func() {
						defer rg.Done()
						worst := int64(0)
						for i := 0; i < per; i++ {
							t0 := time.Now()
							snap := mon.Snapshot()
							if len(snap.Columns()) != 3 {
								b.Error("torn snapshot")
								return
							}
							if _, err := snap.CoverOf("zip"); err != nil {
								b.Error(err)
								return
							}
							if _, err := snap.Unique([]string{"zip"}); err != nil {
								b.Error(err)
								return
							}
							if d := int64(time.Since(t0)); d > worst {
								worst = d
							}
						}
						for {
							cur := maxStall.Load()
							if worst <= cur || maxStall.CompareAndSwap(cur, worst) {
								break
							}
						}
					}()
				}
				rg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				stop.Store(true)
				wg.Wait()
				b.ReportMetric(float64(readers*per)/elapsed.Seconds(), "reads/s")
				b.ReportMetric(float64(maxStall.Load()), "max-stall-ns")
			})
		}
	}
}

// BenchmarkGroupCommit measures fsyncs per durably committed batch under
// concurrent commit pressure: every leader syncs whatever piled up while
// the previous fsync ran. fsyncs/op well below 1 is the group committer
// doing its job. BENCH_groupcommit.json records why there is no linger.
func BenchmarkGroupCommit(b *testing.B) {
	for _, tc := range []struct {
		name string
		conc int
	}{
		{"serial", 1},
		{"conc=2", 2},
		{"conc=8", 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mon := openBenchMonitor(b, WithCheckpointEvery(-1))
			base := mon.WALStats().Syncs
			var (
				mu   sync.Mutex
				next atomic.Int64
				wg   sync.WaitGroup
			)
			b.ResetTimer()
			for c := 0; c < tc.conc; c++ {
				c := c
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						mu.Lock()
						_, commit, err := mon.ApplyStaged(
							Insert(fmt.Sprintf("c%d-%d", c, i), fmt.Sprint("city", i%17), fmt.Sprint("s", i%5)))
						mu.Unlock()
						if err != nil {
							b.Error(err)
							return
						}
						if err := commit.Wait(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(mon.WALStats().Syncs-base)/float64(b.N), "fsyncs/op")
		})
	}
}

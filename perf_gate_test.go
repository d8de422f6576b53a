// Perf gates, run by CI with DYNFD_PERF_GATE=1. Best-of-N measurements
// are compared — the best run is the least noisy location statistic on
// shared runners, and a real regression moves it too.
package dynfd_test

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynfd"
)

// TestReadThroughputGate guards the snapshot read path (DESIGN.md §14):
// read throughput while one writer streams durable batches must stay
// within 20% of idle read throughput. Since readers only Load an atomic
// pointer and query the immutable snapshot, a concurrent writer costs
// them nothing structural — a bigger drop means a lock crept back into
// the read path. Best-of-N, interleaved.
func TestReadThroughputGate(t *testing.T) {
	if os.Getenv("DYNFD_PERF_GATE") == "" {
		t.Skip("set DYNFD_PERF_GATE=1 to run the read throughput gate")
	}
	mon, err := dynfd.OpenDurable(t.TempDir(), []string{"zip", "city", "state"}, dynfd.WithCheckpointEvery(64))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	rows := make([][]string, 0, 200)
	for i := 0; i < 200; i++ {
		rows = append(rows, []string{fmt.Sprint(10000 + i), fmt.Sprint("city", i%17), fmt.Sprint("s", i%5)})
	}
	if err := mon.Bootstrap(rows); err != nil {
		t.Fatal(err)
	}

	const readsPerRound = 200_000
	measure := func(withWriter bool) (readsPerSec float64) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		if withWriter {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					// Pace the writer: a batch every ~100µs plus its commit.
					time.Sleep(100 * time.Microsecond)
					if _, err := mon.Apply(dynfd.Insert(
						fmt.Sprint("g", i), fmt.Sprint("city", i%17), fmt.Sprint("s", i%5))); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		start := time.Now()
		for i := 0; i < readsPerRound; i++ {
			snap := mon.Snapshot()
			if _, err := snap.CoverOf("zip"); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Unique([]string{"zip"}); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		stop.Store(true)
		wg.Wait()
		return float64(readsPerRound) / elapsed.Seconds()
	}

	const rounds = 7
	best := map[bool]float64{}
	// Interleave idle and contended rounds so machine-wide noise hits both.
	for i := 0; i < rounds; i++ {
		for _, withWriter := range []bool{false, true} {
			if v := measure(withWriter); v > best[withWriter] {
				best[withWriter] = v
			}
		}
	}
	idle, contended := best[false], best[true]
	t.Logf("read throughput best-of-%d: idle %.0f reads/s, with writer %.0f reads/s (%.1f%%)",
		rounds, idle, contended, 100*contended/idle)
	if contended < 0.8*idle {
		t.Errorf("read throughput with one writer %.0f reads/s fell below 80%% of idle %.0f reads/s", contended, idle)
	}
}

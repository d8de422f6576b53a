// Benchmarks that regenerate every table and figure of the DynFD paper's
// evaluation (§6) at a reduced scale suitable for `go test -bench`. Each
// benchmark wraps the corresponding experiment of internal/bench; run the
// full-scale versions with `go run ./cmd/dynfd-bench -exp <id>`.
//
// Additional micro-benchmarks cover the primitive costs behind those
// experiments: bootstrap, batch application per operation type, candidate
// validation, and static discovery.
package dynfd_test

import (
	"fmt"
	"io"
	"testing"

	"dynfd"
	"dynfd/internal/bench"
	"dynfd/internal/core"
	"dynfd/internal/datagen"
	"dynfd/internal/hyfd"
	"dynfd/internal/ind"
	"dynfd/internal/stream"
	"dynfd/internal/ucc"
)

// benchOpts returns harness options small enough for repeated bench runs.
func benchOpts() bench.Options {
	return bench.Options{Scale: 0.02, MaxBatches: 3, Out: io.Discard}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	opts := benchOpts()
	if id == "fig7" {
		opts.MaxBatches = 2
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Characteristics regenerates Table 3 (dataset
// characteristics with initial and final FD counts).
func BenchmarkTable3Characteristics(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4BatchProcessing regenerates Table 4 (runtime, throughput,
// average and tail batch times at batch size 100).
func BenchmarkTable4BatchProcessing(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFigure5SingleSeries regenerates Figure 5 (per-batch runtime
// series on the single dataset).
func BenchmarkFigure5SingleSeries(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6BatchSizeScaling regenerates Figure 6 (average batch
// runtime vs. batch size).
func BenchmarkFigure6BatchSizeScaling(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7SpeedupVsHyFD regenerates Figure 7 (speedup of DynFD
// over repeated HyFD executions across relative batch sizes).
func BenchmarkFigure7SpeedupVsHyFD(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8AblationFixed regenerates Figure 8 (pruning-strategy
// compositions at fixed batch size 1,000).
func BenchmarkFigure8AblationFixed(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9AblationRelative regenerates Figure 9 (pruning-strategy
// compositions at a relative batch size of 10%).
func BenchmarkFigure9AblationRelative(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10CPUAblation regenerates Figure 10 (cpu: compositions
// across batch sizes).
func BenchmarkFigure10CPUAblation(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11SingleAblation regenerates Figure 11 (single:
// compositions across batch sizes).
func BenchmarkFigure11SingleAblation(b *testing.B) { runExperiment(b, "fig11") }

// --- micro-benchmarks -----------------------------------------------------

func generated(b *testing.B, name string, scale float64) *datagen.Dataset {
	b.Helper()
	p, err := datagen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := datagen.Generate(p.Scaled(scale))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkBootstrapHyFD measures the static bootstrap cost DynFD pays
// once per relation.
func BenchmarkBootstrapHyFD(b *testing.B) {
	d := generated(b, "disease", 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hyfd.Discover(d.Relation); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapEngine stands up an engine over artist ×0.2 (10,000
// rows × 18 columns, the tenant the service ledger creates) through
// core.Bootstrap at Workers -1, as the service runs it: the Pli store's
// bulk load, HyFD, and the cover inversion.
func BenchmarkBootstrapEngine(b *testing.B) {
	d := generated(b, "artist", 0.2)
	cfg := core.DefaultConfig()
	cfg.Workers = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Bootstrap(d.Relation, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyBatch measures one maintenance batch per operation mix.
func BenchmarkApplyBatch(b *testing.B) {
	for _, name := range []string{"cpu", "disease", "claims"} {
		b.Run(name, func(b *testing.B) {
			d := generated(b, name, 0.25)
			batches := stream.FixedBatches(d.Changes, 50)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := core.Bootstrap(d.Relation, core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range batches {
					if _, err := eng.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkScheduler measures the disease replay (scale 0.25, 50-change
// batches) through core.Engine.ApplyBatch across worker counts; workers=1
// runs like BenchmarkApplyBatch/disease, inline on the calling goroutine.
// The reported validations/op metric sits next to the wall-clock numbers.
// Baselines live in BENCH_parallel.json, BENCH_delta.json and
// BENCH_pipeline.json.
func BenchmarkScheduler(b *testing.B) {
	d := generated(b, "disease", 0.25)
	batches := stream.FixedBatches(d.Changes, 50)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			var validations int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := core.Bootstrap(d.Relation, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range batches {
					if _, err := eng.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				validations += eng.Stats().Validations
				b.StartTimer()
			}
			b.ReportMetric(float64(validations)/float64(b.N), "validations/op")
		})
	}
}

// BenchmarkInsertPhase replays the artist history (scale 0.2, 100-change
// batches, one scheduler worker per CPU) and reports the insert phase
// (paper Fig. 1 step 3), where the agree-mask index answers the pruned
// validations: insert-ms/op is its wall-clock time per replay,
// agree-pairs/op the record pairs compared to build the indexes, and
// validations/op the candidate validations. Numbers live in
// BENCH_insert.json.
func BenchmarkInsertPhase(b *testing.B) {
	d := generated(b, "artist", 0.2)
	batches := stream.FixedBatches(d.Changes, 100)
	cfg := core.DefaultConfig()
	cfg.Workers = -1
	b.ReportAllocs()
	var st core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := core.Bootstrap(d.Relation, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, batch := range batches {
			if _, err := eng.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		s := eng.Stats()
		st.InsertPhaseTime += s.InsertPhaseTime
		st.AgreePairs += s.AgreePairs
		st.Validations += s.Validations
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(st.InsertPhaseTime.Microseconds())/1e3/n, "insert-ms/op")
	b.ReportMetric(float64(st.AgreePairs)/n, "agree-pairs/op")
	b.ReportMetric(float64(st.Validations)/n, "validations/op")
}

// BenchmarkStaticDiscovery compares the three static algorithms on the
// same snapshot.
func BenchmarkStaticDiscovery(b *testing.B) {
	d := generated(b, "disease", 0.1)
	for _, algo := range []dynfd.Algorithm{dynfd.AlgorithmHyFD, dynfd.AlgorithmTANE, dynfd.AlgorithmFDEP} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dynfd.Discover(d.Relation.Columns, d.Relation.Rows, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeyMonitorMaintenance measures the UCC (candidate key) sibling
// engine over the same batch workload as BenchmarkApplyBatch.
func BenchmarkKeyMonitorMaintenance(b *testing.B) {
	d := generated(b, "disease", 0.25)
	batches := stream.FixedBatches(d.Changes, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := ucc.Bootstrap(d.Relation)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, batch := range batches {
			if _, err := eng.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkINDMonitorMaintenance measures the unary-IND sibling engine.
func BenchmarkINDMonitorMaintenance(b *testing.B) {
	d := generated(b, "disease", 0.25)
	batches := stream.FixedBatches(d.Changes, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := ind.Bootstrap(d.Relation)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, batch := range batches {
			if _, err := eng.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSnapshotRoundTrip measures persistence: saving and restoring a
// profiled engine versus the bootstrap it avoids.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	d := generated(b, "disease", 0.25)
	eng, err := core.Bootstrap(d.Relation, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := eng.Snapshot()
		if _, err := core.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorInsertThroughput measures steady-state single-insert
// batches through the public API.
func BenchmarkMonitorInsertThroughput(b *testing.B) {
	mon, err := dynfd.NewMonitor([]string{"k", "a", "b", "c"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Apply(dynfd.Insert(
			fmt.Sprint(i), fmt.Sprint(i%10), fmt.Sprint(i%100), fmt.Sprint(i%7),
		)); err != nil {
			b.Fatal(err)
		}
	}
}

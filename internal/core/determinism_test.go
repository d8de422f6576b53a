package core

import (
	"testing"

	"dynfd/internal/datagen"
	"dynfd/internal/fanout/fanouttest"
	"dynfd/internal/stream"
)

// replayStats bootstraps an engine on ds at the given GOMAXPROCS, replays
// its change history in batches of batchSize, and returns the final Stats
// with the wall-clock fields zeroed, leaving only the work counters.
func replayStats(t *testing.T, ds *datagen.Dataset, batchSize, procs int) Stats {
	t.Helper()
	fanouttest.SetGOMAXPROCS(t, procs)
	e, err := Bootstrap(ds.Relation, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ds.Changes); i += batchSize {
		end := min(i+batchSize, len(ds.Changes))
		if _, err := e.ApplyBatch(stream.Batch{Changes: ds.Changes[i:end]}); err != nil {
			t.Fatalf("batch at change %d: %v", i, err)
		}
	}
	st := e.Stats()
	st.StructureTime, st.DeletePhaseTime, st.InsertPhaseTime = 0, 0, 0
	return st
}

// TestReplayWorkCountersDeterministic replays one history three times at
// GOMAXPROCS 1 and once at GOMAXPROCS 4, and requires identical work
// counters.
// Maintenance fans out, but the sweeps run inline. Full validations walk
// pivot clusters in ascending cluster-id order and pruned ones report the
// canonical witness, so every witness, and with it every annotation-driven
// skip and depth-first search, is a pure function of the history. The
// agree-mask index's build decisions are too, so AgreePairs repeats
// exactly; the artist replay must build indexes for the pin to count.
// GOMAXPROCS is process-wide, so the subtests do not run in parallel.
func TestReplayWorkCountersDeterministic(t *testing.T) {
	for _, name := range []string{"artist", "disease"} {
		t.Run(name, func(t *testing.T) {
			p, err := datagen.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := datagen.Generate(p.Scaled(0.05))
			if err != nil {
				t.Fatal(err)
			}
			first := replayStats(t, ds, 100, 1)
			if first.Validations == 0 {
				t.Fatal("replay ran no validations")
			}
			if name == "artist" && first.AgreePairs == 0 {
				t.Fatal("artist replay built no agree-mask index")
			}
			for run := 2; run <= 3; run++ {
				if got := replayStats(t, ds, 100, 1); got != first {
					t.Fatalf("replay %d work counters differ:\n first %+v\n got   %+v", run, first, got)
				}
			}
			if got := replayStats(t, ds, 100, 4); got != first {
				t.Fatalf("GOMAXPROCS 4 work counters differ from GOMAXPROCS 1:\n GOMAXPROCS=1 %+v\n GOMAXPROCS=4 %+v", first, got)
			}
		})
	}
}

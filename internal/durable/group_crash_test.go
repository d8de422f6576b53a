package durable

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dynfd/internal/core"
	"dynfd/internal/dataset"
	"dynfd/internal/faultio"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// slowSyncStorage is a Storage whose log Sync sleeps before syncing, so
// batches staged while a group fsync runs pile up behind it and the next
// leader's fsync covers several of them — on in-memory storage an fsync
// otherwise costs almost nothing and groups rarely form.
type slowSyncStorage struct {
	Storage
	delay time.Duration
}

func (s slowSyncStorage) Log() wal.File { return slowSyncFile{s.Storage.Log(), s.delay} }

type slowSyncFile struct {
	wal.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// groupBatch builds the w-th writer's b-th batch: insert-only with a
// unique first column per batch and low-cardinality tail columns, so any
// interleaving applies cleanly and still moves the covers around.
func groupBatch(w, b int) stream.Batch {
	return stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{fmt.Sprintf("w%d-b%d-0", w, b), fmt.Sprint("x", b%2), fmt.Sprint("y", w%2)}},
		{Kind: stream.Insert, Values: []string{fmt.Sprintf("w%d-b%d-1", w, b), fmt.Sprint("x", (b+1)%2), fmt.Sprint("y", w%2)}},
	}}
}

// TestGroupCommitCrashRecovery is the fault-injection property test of the
// group-commit path: several goroutines stage batches concurrently —
// stage under a shared lock, wait outside it, commits coalescing into
// shared fsyncs — while a crash is injected at a scripted storage unit.
// After the kill, recovery from the surviving bytes must land on a batch
// prefix that contains every acknowledged batch (acked ⇒ durable) and
// whose engine state is bit-identical to replaying exactly that prefix in
// the original staging order (unacked batches recover cleanly or not at
// all — never half-applied).
func TestGroupCommitCrashRecovery(t *testing.T) {
	cfg := core.DefaultConfig()
	rows := [][]string{
		{"r0", "x0", "y0"},
		{"r1", "x1", "y1"},
		{"r2", "x0", "y1"},
	}
	opts := Options{Columns: testColumns, Config: cfg, CheckpointEvery: 5}
	const syncDelay = time.Millisecond
	const writers, perWriter = 4, 4
	totalBatches := writers * perWriter

	// run drives the concurrent lifecycle against st: every successful
	// Stage records its (seq, batch) in staging order, the first failed
	// Stage keeps its batch (its WAL record may be torn but could also
	// have landed), and acked collects the sequences whose Wait returned
	// nil. syncs counts the group fsyncs of a run that got past Bootstrap.
	run := func(st Storage) (staged map[uint64]stream.Batch, firstFail *stream.Batch, acked []uint64, bootAcked bool, syncs int) {
		staged = map[uint64]stream.Batch{}
		eng, err := Open(slowSyncStorage{st, syncDelay}, opts)
		if err != nil {
			return staged, nil, nil, false, 0
		}
		if err := eng.Bootstrap(rows); err != nil {
			return staged, nil, nil, false, 0
		}
		var (
			mu      sync.Mutex // external Stage serialization, as the runtime does
			ackedMu sync.Mutex
			wg      sync.WaitGroup
		)
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < perWriter; b++ {
					batch := groupBatch(w, b)
					mu.Lock()
					_, p, err := eng.Stage(batch)
					if err != nil {
						if firstFail == nil {
							bcopy := batch
							firstFail = &bcopy
						}
						mu.Unlock()
						return
					}
					mySeq := eng.Seq()
					staged[mySeq] = batch
					mu.Unlock()
					if p.Wait() == nil {
						ackedMu.Lock()
						acked = append(acked, mySeq)
						ackedMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		syncs, _ = eng.SyncStats()
		return staged, firstFail, acked, true, syncs
	}

	// Calibrate the storage-unit count with a fault-free concurrent run,
	// which must also have formed multi-batch sync groups: otherwise the
	// crash points below never land inside a shared fsync. Each automatic
	// checkpoint makes at least the batch that triggered it durable without
	// an fsync; without sync groups every other batch takes its own.
	free := faultio.NewMem()
	staged, _, _, boot, syncs := run(free)
	if !boot || len(staged) != totalBatches {
		t.Fatalf("fault-free run staged %d/%d batches (boot %v)", len(staged), totalBatches, boot)
	}
	if unfolded := totalBatches - totalBatches/opts.CheckpointEvery; syncs >= unfolded {
		t.Fatalf("fault-free run took %d fsyncs for %d batches not folded into a checkpoint: no sync group formed", syncs, unfolded)
	}
	total := free.Units()
	if total < 100 {
		t.Fatalf("suspiciously small unit count %d; workload broken?", total)
	}

	stride := total/120 + 1
	keeps := []int{0, 1, 9, 1 << 20}
	points := 0
	for budget := int64(0); budget <= total; budget += stride {
		m := faultio.NewMemCrashAt(budget)
		staged, firstFail, acked, bootAcked, _ := run(m)
		points++

		re := m.Reopen(keeps[budget%int64(len(keeps))])
		rec, err := Open(re, opts)
		if err != nil {
			t.Fatalf("budget=%d: recovery failed: %v", budget, err)
		}
		seq := rec.Seq()

		// Acked ⇒ durable: every acknowledged sequence is inside the
		// recovered prefix.
		for _, a := range acked {
			if a > seq {
				t.Fatalf("budget=%d: batch %d was acked but recovery stops at %d — durability lost", budget, a, seq)
			}
		}

		// The recovered prefix must consist of staged batches in staging
		// order; the one sequence past the staged map can only be the
		// first failed Stage whose append made it to the log whole.
		replay := make([]stream.Batch, 0, seq)
		for s := uint64(1); s <= seq; s++ {
			b, ok := staged[s]
			if !ok {
				if s == uint64(len(staged))+1 && firstFail != nil {
					b = *firstFail
				} else {
					t.Fatalf("budget=%d: recovered seq %d was never staged (staged %d, firstFail %v)",
						budget, s, len(staged), firstFail != nil)
				}
			}
			replay = append(replay, b)
		}

		// Oracle: replay exactly that prefix without faults.
		rel := dataset.New("r", testColumns)
		for _, row := range rows {
			if err := rel.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		oracle, err := core.Bootstrap(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range replay {
			if _, err := oracle.ApplyBatch(b); err != nil {
				t.Fatalf("budget=%d: oracle replay of batch %d: %v", budget, i+1, err)
			}
		}
		got, want := captureState(rec.Core()), captureState(oracle)
		if seq == 0 && got.records == 0 && !bootAcked {
			// The bootstrap never became durable; the empty engine is the
			// correct recovery.
			want = captureState(core.NewEmpty(len(testColumns), cfg))
		}
		if got != want {
			t.Fatalf("budget=%d: recovered state at seq %d diverges from oracle\n got %+v\nwant %+v",
				budget, seq, got, want)
		}
		if err := rec.Core().CheckInvariants(); err != nil {
			t.Fatalf("budget=%d: invariants after recovery: %v", budget, err)
		}
	}
	t.Logf("verified %d crash points over %d concurrent batches (stride %d of %d units)",
		points, totalBatches, stride, total)
}

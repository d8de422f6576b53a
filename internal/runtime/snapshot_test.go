package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynfd"
)

// TestSnapshotReadPathUnderConcurrentWriters hammers one tenant with
// concurrent Apply callers (their commits coalesce in the group committer)
// while reader goroutines use every lock-free read path: Snapshot, List,
// KeyCheck, INDs, Metrics. Readers must always observe a monotone sequence
// and internally consistent snapshots, and must keep making progress while
// writers hold the tenant mutation lock. Run under -race this doubles as
// the data-race proof for the runtime's read path.
func TestSnapshotReadPathUnderConcurrentWriters(t *testing.T) {
	t.Parallel()
	rt := openTestRuntime(t, Config{})
	if err := rt.Create("hot", []string{"zip", "city"}, [][]string{{"14482", "Potsdam"}}); err != nil {
		t.Fatal(err)
	}

	const (
		writers          = 4
		batchesPerWriter = 25
		readers          = 4
	)
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		wErr    = make([]error, writers)
		rErr    = make([]error, readers)
		reads   atomic.Int64
		written atomic.Int64
	)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batchesPerWriter; b++ {
				_, err := rt.Apply("hot", []dynfd.Change{
					dynfd.Insert(fmt.Sprintf("%d-%d", w, b), fmt.Sprint("city", b%3)),
				})
				if err != nil {
					wErr[w] = err
					return
				}
				written.Add(1)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for !stop.Load() {
				snap, staged, err := rt.Snapshot("hot")
				if err != nil {
					rErr[i] = err
					return
				}
				if snap.Seq() < lastSeq {
					rErr[i] = fmt.Errorf("snapshot seq went backwards: %d after %d", snap.Seq(), lastSeq)
					return
				}
				lastSeq = snap.Seq()
				if staged < snap.Seq() {
					rErr[i] = fmt.Errorf("staged seq %d below snapshot seq %d", staged, snap.Seq())
					return
				}
				// Each batch inserts exactly one row on top of the single
				// bootstrap row, so within one snapshot records and seq
				// are locked together — a torn snapshot breaks this.
				if snap.NumRecords() != int(snap.Seq())+1 {
					rErr[i] = fmt.Errorf("torn snapshot: seq %d with %d records", snap.Seq(), snap.NumRecords())
					return
				}
				if unique, err := rt.KeyCheck("hot", []string{"zip"}); err != nil || !unique {
					rErr[i] = fmt.Errorf("KeyCheck(zip) = %v, %v; want unique", unique, err)
					return
				}
				if _, err := rt.INDs("hot"); err != nil {
					rErr[i] = err
					return
				}
				if infos := rt.List(); len(infos) != 1 || infos[0].SnapshotSeq > infos[0].Seq {
					rErr[i] = fmt.Errorf("List = %+v", infos)
					return
				}
				reads.Add(1)
			}
		}()
	}

	// Wait for the writers, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for written.Load() < writers*batchesPerWriter {
		time.Sleep(time.Millisecond)
		for _, err := range wErr {
			if err != nil {
				stop.Store(true)
				<-done
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	<-done
	for w, err := range wErr {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	for i, err := range rErr {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress while writers streamed")
	}

	// Quiesced: the published snapshot catches up to the staged sequence.
	info, err := rt.Info("hot")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(writers * batchesPerWriter)
	if info.Seq != want || info.SnapshotSeq != want {
		t.Fatalf("quiesced seq=%d snapshot_seq=%d, want both %d", info.Seq, info.SnapshotSeq, want)
	}
	if info.Records != int(want)+1 {
		t.Fatalf("quiesced records = %d, want %d", info.Records, want+1)
	}
}

// TestListDoesNotBlockBehindApply pins the satellite guarantee directly: a
// tenant listing returns while a slow batch holds the tenant's mutation
// lock.
func TestListDoesNotBlockBehindApply(t *testing.T) {
	t.Parallel()
	rt := openTestRuntime(t, Config{})
	if err := rt.Create("slow", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	// Occupy the tenant's mutation lock directly — the worst case of a
	// long ApplyBatch in flight.
	tn, err := rt.get("slow")
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()

	done := make(chan []TenantInfo, 1)
	go func() { done <- rt.List() }()
	select {
	case infos := <-done:
		if len(infos) != 1 || infos[0].Name != "slow" {
			t.Fatalf("List = %+v", infos)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("List blocked behind the tenant mutation lock")
	}

	// Info, KeyCheck, INDs, and Metrics ride the same lock-free path.
	infoDone := make(chan error, 1)
	go func() {
		if _, err := rt.Info("slow"); err != nil {
			infoDone <- err
			return
		}
		if _, err := rt.INDs("slow"); err != nil {
			infoDone <- err
			return
		}
		if _, err := rt.KeyCheck("slow", []string{"a"}); err != nil {
			infoDone <- err
			return
		}
		if m := rt.Metrics(); len(m) != 1 {
			infoDone <- fmt.Errorf("Metrics = %+v", m)
			return
		}
		infoDone <- nil
	}()
	select {
	case err := <-infoDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read queries blocked behind the tenant mutation lock")
	}
}

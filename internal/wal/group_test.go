package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitCoalesces has many waiters commit concurrently against a
// slow fsync and checks they all succeed with far fewer fsyncs than
// batches — the point of group commit.
func TestGroupCommitCoalesces(t *testing.T) {
	var fsyncs atomic.Int64
	g := NewGroupCommitter(func() error {
		fsyncs.Add(1)
		time.Sleep(2 * time.Millisecond) // let followers pile up
		return nil
	}, 0)

	const n = 64
	var mu sync.Mutex // stands in for the engine's mutation lock
	var seq uint64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Check(); err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			seq++
			mine := seq
			g.Appended(mine)
			mu.Unlock()
			errs[i] = g.WaitSynced(mine)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := fsyncs.Load(); got >= n {
		t.Fatalf("no coalescing: %d fsyncs for %d batches", got, n)
	}
	if syncs, _ := g.Stats(); int64(syncs) != fsyncs.Load() {
		t.Fatalf("Stats syncs = %d, fsync fn ran %d times", syncs, fsyncs.Load())
	}
}

// TestGroupCommitMarkSynced checks checkpoint-folded durability: waiters at
// or below the marked sequence return without any fsync.
func TestGroupCommitMarkSynced(t *testing.T) {
	var fsyncs atomic.Int64
	block := make(chan struct{})
	g := NewGroupCommitter(func() error {
		fsyncs.Add(1)
		<-block
		return nil
	}, 0)
	g.Appended(1)

	// The first waiter elects itself leader and parks in the blocked
	// fsync; the second becomes a follower waiting on the condition.
	leader := make(chan error, 1)
	go func() { leader <- g.WaitSynced(1) }()
	for fsyncs.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	g.Appended(2)
	follower := make(chan error, 1)
	go func() { follower <- g.WaitSynced(2) }()

	// A checkpoint covers both sequences: the follower must return while
	// the fsync is still stuck.
	time.Sleep(time.Millisecond)
	g.MarkSynced(2)
	select {
	case err := <-follower:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("MarkSynced did not release the follower")
	}
	if got := fsyncs.Load(); got != 1 {
		t.Fatalf("follower durability took %d fsyncs, want the stuck 1", got)
	}
	close(block)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}

	// Already-durable waits are free.
	if err := g.WaitSynced(2); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitExclusive checks that Exclusive never overlaps an fsync
// and that no new leader starts while it runs.
func TestGroupCommitExclusive(t *testing.T) {
	var inSync atomic.Bool
	var overlap atomic.Bool
	g := NewGroupCommitter(func() error {
		inSync.Store(true)
		time.Sleep(2 * time.Millisecond)
		inSync.Store(false)
		return nil
	}, 0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var seq atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := seq.Add(1)
				g.Appended(s)
				if err := g.WaitSynced(s); err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		err := g.Exclusive(func() error {
			if inSync.Load() {
				overlap.Store(true)
			}
			time.Sleep(time.Millisecond)
			if inSync.Load() {
				overlap.Store(true)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	g.Close()
	wg.Wait()
	if overlap.Load() {
		t.Fatal("Exclusive section overlapped an in-flight fsync")
	}
}

// TestGroupCommitPoison checks the sticky error: the first failure wins,
// every waiter and later Check observes it.
func TestGroupCommitPoison(t *testing.T) {
	boom := errors.New("disk gone")
	calls := 0
	g := NewGroupCommitter(func() error {
		calls++
		return boom
	}, 0)
	g.Appended(1)
	if err := g.WaitSynced(1); !errors.Is(err, boom) {
		t.Fatalf("WaitSynced = %v, want %v", err, boom)
	}
	if err := g.Check(); !errors.Is(err, boom) {
		t.Fatalf("Check after failure = %v, want %v", err, boom)
	}
	// Poison with a second error must not displace the first.
	g.Poison(errors.New("later"))
	if err := g.WaitSynced(2); !errors.Is(err, boom) {
		t.Fatalf("WaitSynced after Poison = %v, want the first error %v", err, boom)
	}
}

// TestGroupCommitClose checks close semantics: unsatisfied waits fail with
// ErrCommitterClosed, already-durable waits still succeed.
func TestGroupCommitClose(t *testing.T) {
	g := NewGroupCommitter(func() error { return nil }, 5)
	if err := g.Check(); err != nil {
		t.Fatalf("Check before Close = %v", err)
	}
	g.Close()
	if err := g.WaitSynced(3); err != nil {
		t.Fatalf("already-durable wait after Close = %v", err)
	}
	if err := g.WaitSynced(9); !errors.Is(err, ErrCommitterClosed) {
		t.Fatalf("undurable wait after Close = %v, want ErrCommitterClosed", err)
	}
	if err := g.Check(); !errors.Is(err, ErrCommitterClosed) {
		t.Fatalf("Check after Close = %v, want ErrCommitterClosed", err)
	}
}

package repl_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dynfd"
	"dynfd/internal/repl"
)

var testCols = []string{"a", "b", "c"}

// monState is the observable query surface the replication properties
// compare: both covers, the record count, and the position.
type monState struct {
	seq     uint64
	fds     string
	nonFDs  string
	records int
}

func captureMon(m *dynfd.DurableMonitor) monState {
	return monState{
		seq:     m.Seq(),
		fds:     fmt.Sprint(m.FDs()),
		nonFDs:  fmt.Sprint(m.NonFDs()),
		records: m.NumRecords(),
	}
}

// genWorkload builds a deterministic random change stream over the
// 3-column schema together with the direct-replay oracle: states[i] is the
// exact monitor state after the first i batches (sequence i). Change IDs
// embedded in the batches replay identically on any engine because ID
// assignment is deterministic in batch order.
func genWorkload(t testing.TB, numBatches int) (batches [][]dynfd.Change, states []monState) {
	t.Helper()
	oracle, err := dynfd.OpenDurable(t.TempDir(), testCols)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	rng := rand.New(rand.NewSource(7))
	domain := []string{"x", "y", "z"}
	randRow := func() []string {
		return []string{domain[rng.Intn(3)], domain[rng.Intn(3)], domain[rng.Intn(3)]}
	}
	var live []int64
	states = append(states, captureMon(oracle)) // states[0]: empty
	for b := 0; b < numBatches; b++ {
		var batch []dynfd.Change
		perm := rng.Perm(len(live))
		next := 0
		dead := map[int64]bool{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch op := rng.Intn(4); {
			case op == 0 && next < len(perm): // delete
				id := live[perm[next]]
				next++
				dead[id] = true
				batch = append(batch, dynfd.Delete(id))
			case op == 1 && next < len(perm): // update (reassigns the id)
				id := live[perm[next]]
				next++
				dead[id] = true
				batch = append(batch, dynfd.Update(id, randRow()...))
			default:
				batch = append(batch, dynfd.Insert(randRow()...))
			}
		}
		diff, err := oracle.Apply(batch...)
		if err != nil {
			t.Fatalf("oracle batch %d: %v", b, err)
		}
		var survivors []int64
		for _, id := range live {
			if !dead[id] {
				survivors = append(survivors, id)
			}
		}
		live = append(survivors, diff.InsertedIDs...)
		batches = append(batches, batch)
		states = append(states, captureMon(oracle))
	}
	return batches, states
}

// primarySource is a repl.Source over a single-tenant primary monitor.
// The mutex is the external serialization the monitor's mutation surface
// requires: the test writer and the checkpoint endpoint share it.
type primarySource struct {
	mu   sync.Mutex
	name string
	mon  *dynfd.DurableMonitor
	feed *repl.Feed
	wit  *witnessLog // when set, apply records the witnesses of every batch
}

func (s *primarySource) ReplTenants() []repl.TenantStatus {
	return []repl.TenantStatus{{Name: s.name, Seq: s.feed.DurableSeq()}}
}

func (s *primarySource) ReplFeed(name string) (*repl.Feed, error) {
	if name != s.name {
		return nil, fmt.Errorf("no such tenant %q", name)
	}
	return s.feed, nil
}

func (s *primarySource) ReplEpoch(name string) (uint64, uint64, error) {
	if name != s.name {
		return 0, 0, fmt.Errorf("no such tenant %q", name)
	}
	return s.mon.Epoch(), s.mon.EpochStart(), nil
}

func (s *primarySource) ReplObserve(name string, epoch uint64) {}

func (s *primarySource) ReplCheckpoint(name string) ([]byte, uint64, error) {
	if name != s.name {
		return nil, 0, fmt.Errorf("no such tenant %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	minSeq := s.feed.Floor()
	if es := s.mon.EpochStart(); es > minSeq {
		minSeq = es // a rejoiner from a lost epoch needs a post-promotion checkpoint
	}
	blob, seq, err := s.mon.CheckpointBlob(minSeq)
	return blob, seq, err
}

// apply commits one batch on the primary under the source's serialization.
func (s *primarySource) apply(t testing.TB, batch []dynfd.Change) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.mon.Apply(batch...); err != nil {
		t.Fatalf("primary apply: %v", err)
	}
	if s.wit != nil {
		s.wit.record(s.mon.Seq(), monitorSnapshot(t, s.mon))
	}
}

// trackWitnesses makes apply record the primary's witnesses after every
// batch, starting with the current state, for shadow-checked followers.
func (s *primarySource) trackWitnesses(t testing.TB) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wit = newWitnessLog()
	s.wit.record(s.mon.Seq(), monitorSnapshot(t, s.mon))
}

// startPrimary opens a feed-attached primary monitor and serves the
// replication protocol for it over httptest, returning the source and a
// client pointed at the server.
func startPrimary(t testing.TB, feedCap, checkpointEvery int) (*primarySource, *repl.Client) {
	t.Helper()
	feed := repl.NewFeed(0, feedCap)
	opts := []dynfd.Option{dynfd.WithChangeFeed(feed)}
	if checkpointEvery != 0 {
		opts = append(opts, dynfd.WithCheckpointEvery(checkpointEvery))
	}
	mon, err := dynfd.OpenDurable(t.TempDir(), testCols, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mon.Close() })
	src := &primarySource{name: "t", mon: mon, feed: feed}
	srv := repl.NewServer(src)
	srv.Heartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return src, repl.NewClient(ts.URL, nil)
}

// runFollower opens a follower monitor in dir (created fresh when columns
// is non-nil, recovered otherwise) and replicates until the test ends.
// The returned stop function cancels replication and waits for the replay
// goroutine so the monitor can be inspected without races.
func runFollower(t testing.TB, client *repl.Client, dir string, columns []string) (*dynfd.DurableMonitor, *repl.Follower, func()) {
	t.Helper()
	return startFollower(t, client, openIn(dir, columns), nil)
}

// openIn opens the follower monitor in dir: created fresh when columns is
// non-nil, recovered otherwise.
func openIn(dir string, columns []string) func() (*dynfd.DurableMonitor, error) {
	return func() (*dynfd.DurableMonitor, error) { return dynfd.OpenDurable(dir, columns) }
}

// seedIn opens a follower monitor in the empty dir at a primary
// checkpoint blob.
func seedIn(dir string, blob []byte) func() (*dynfd.DurableMonitor, error) {
	return func() (*dynfd.DurableMonitor, error) { return dynfd.OpenReplica(dir, blob) }
}

// runCheckedFollower is runFollower with the shadow check (shadow_test.go)
// on every frame, over the follower monitor open returns: src must record
// its witnesses, and batches is the replicated history from sequence 1.
func runCheckedFollower(t testing.TB, client *repl.Client, open func() (*dynfd.DurableMonitor, error), src *primarySource, batches [][]dynfd.Change) (*dynfd.DurableMonitor, *repl.Follower, func(), *shadowCounts) {
	t.Helper()
	counts := &shadowCounts{}
	rows := recordHistory(streamBatches(batches))
	mon, fol, stop := startFollower(t, client, open, func(mon *dynfd.DurableMonitor) repl.Replica {
		return &shadowReplica{t: t, rep: mon, state: monitorState(t, mon), rows: rows, primary: src.wit, counts: counts}
	})
	return mon, fol, stop, counts
}

func startFollower(t testing.TB, client *repl.Client, open func() (*dynfd.DurableMonitor, error), wrap func(*dynfd.DurableMonitor) repl.Replica) (*dynfd.DurableMonitor, *repl.Follower, func()) {
	t.Helper()
	mon, err := open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mon.Close() })
	var rep repl.Replica = mon
	if wrap != nil {
		rep = wrap(mon)
	}
	fol := repl.NewFollower(client, "t", rep, repl.FollowerOptions{
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil && err != context.Canceled {
				t.Errorf("follower run: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return mon, fol, stop
}

// waitSeq polls until the monitor has applied sequence want. Seq is one of
// the monitor's concurrency-safe reads, so polling races with nothing.
func waitSeq(t testing.TB, mon *dynfd.DurableMonitor, want uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for mon.Seq() != want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d", mon.Seq(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkConverged stops the follower and asserts its full query surface
// equals the oracle state.
func checkConverged(t testing.TB, mon *dynfd.DurableMonitor, stop func(), want monState) {
	t.Helper()
	stop()
	if got := captureMon(mon); got != want {
		t.Fatalf("follower state diverged:\n got %+v\nwant %+v", got, want)
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatalf("follower invariants: %v", err)
	}
}

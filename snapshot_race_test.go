package dynfd

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fingerprintSnapshot reduces everything a reader can observe from one
// snapshot to a deterministic string: if two observers ever disagree about
// the same sequence, one of them saw a torn result.
func fingerprintSnapshot(s *ResultSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "recs=%d;fds=", s.NumRecords())
	for _, f := range s.FDs() {
		b.WriteString(s.FormatFD(f))
		b.WriteByte('|')
	}
	fmt.Fprintf(&b, ";nonfds=%d;inds=", len(s.NonFDs()))
	cols := s.Columns()
	for _, d := range s.INDs() {
		fmt.Fprintf(&b, "%s<%s|", cols[d.Lhs], cols[d.Rhs])
	}
	if u, err := s.Unique(cols[:1]); err == nil {
		fmt.Fprintf(&b, ";key0=%v", u)
	}
	groups, g3, err := s.Violations(cols[:1], cols[1], 0)
	if err == nil {
		fmt.Fprintf(&b, ";vio=%d,g3=%.6f", len(groups), g3)
	}
	return b.String()
}

// TestSnapshotReadersVsWriter streams batches from one writer while many
// reader goroutines hammer the published snapshot with cover, key, IND,
// and violation queries. Every reader must see (a) monotonically
// non-decreasing sequence numbers and (b) for each sequence, answers
// identical to every other observer of that sequence — i.e. each answer is
// consistent with some committed prefix of the stream. Run under -race
// this is also the data-race proof for the lock-free read path.
func TestSnapshotReadersVsWriter(t *testing.T) {
	dir := t.TempDir()
	cols := []string{"zip", "city", "state"}
	mon, err := OpenDurable(dir, cols, WithCheckpointEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.Bootstrap([][]string{
		{"14482", "Potsdam", "BB"},
		{"10115", "Berlin", "BE"},
		{"80331", "Munich", "BY"},
	}); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 6
		batches = 60
	)
	// fingerprints[seq] — first observer records, later observers must
	// match exactly.
	var fingerprints sync.Map
	observe := func(s *ResultSnapshot) error {
		got := fingerprintSnapshot(s)
		if prev, loaded := fingerprints.LoadOrStore(s.Seq(), got); loaded && prev != got {
			return fmt.Errorf("seq %d observed twice with different results:\n  %s\n  %s", s.Seq(), prev, got)
		}
		return nil
	}

	var (
		stop      atomic.Bool
		writerErr error
		readerErr = make([]error, readers)
		reads     atomic.Int64
		wg        sync.WaitGroup
	)

	// Writer: single goroutine (DurableMonitor mutations are externally
	// serialized); each Apply durably commits one batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		r := rand.New(rand.NewSource(42))
		id := int64(3)
		for b := 0; b < batches; b++ {
			changes := []Change{
				{Kind: KindInsert, Values: []string{
					fmt.Sprint(10000 + r.Intn(500)), fmt.Sprint("city", r.Intn(5)), fmt.Sprint("s", r.Intn(3)),
				}},
			}
			if b%3 == 2 {
				changes = append(changes, Change{Kind: KindDelete, ID: id})
				id++
			}
			if _, err := mon.Apply(changes...); err != nil {
				writerErr = fmt.Errorf("batch %d: %w", b, err)
				return
			}
			if err := observe(mon.Snapshot()); err != nil {
				writerErr = err
				return
			}
		}
	}()

	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for !stop.Load() {
				s := mon.Snapshot()
				if s.Seq() < lastSeq {
					readerErr[i] = fmt.Errorf("sequence went backwards: %d after %d", s.Seq(), lastSeq)
					return
				}
				lastSeq = s.Seq()
				if err := observe(s); err != nil {
					readerErr[i] = err
					return
				}
				reads.Add(1)
			}
		}()
	}
	wg.Wait()

	if writerErr != nil {
		t.Fatal(writerErr)
	}
	for i, err := range readerErr {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}

	// The final snapshot must agree with the monitor's own read API.
	final := mon.Snapshot()
	if final.Seq() != mon.Seq() {
		t.Fatalf("final snapshot at seq %d, monitor at %d", final.Seq(), mon.Seq())
	}
	if final.NumRecords() != mon.NumRecords() {
		t.Fatalf("final snapshot has %d records, monitor %d", final.NumRecords(), mon.NumRecords())
	}
	gotFDs := make([]string, 0, len(final.FDs()))
	for _, f := range final.FDs() {
		gotFDs = append(gotFDs, final.FormatFD(f))
	}
	wantFDs := make([]string, 0, len(mon.FDs()))
	for _, f := range mon.FDs() {
		wantFDs = append(wantFDs, mon.FormatFD(f))
	}
	sort.Strings(gotFDs)
	sort.Strings(wantFDs)
	if strings.Join(gotFDs, "|") != strings.Join(wantFDs, "|") {
		t.Fatalf("final snapshot FDs diverged:\n snap %v\n mon  %v", gotFDs, wantFDs)
	}
}

// TestApplyStagedOverlappingCommits drives overlapping staged commits the
// way the runtime does — stage under a lock, wait outside it — and checks
// acked batches are all recovered and the published snapshot converges.
func TestApplyStagedOverlappingCommits(t *testing.T) {
	dir := t.TempDir()
	cols := []string{"a", "b"}
	mon, err := OpenDurable(dir, cols, WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}

	const n = 40
	var (
		mu       sync.Mutex // external serialization of Stage, as in the runtime
		wg       sync.WaitGroup
		applyErr = make([]error, n)
	)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			_, commit, err := mon.ApplyStaged(Change{Kind: KindInsert, Values: []string{fmt.Sprint(i), fmt.Sprint(i % 4)}})
			mu.Unlock()
			if err != nil {
				applyErr[i] = err
				return
			}
			applyErr[i] = commit.Wait()
		}()
	}
	wg.Wait()
	for i, err := range applyErr {
		if err != nil {
			t.Fatalf("staged apply %d: %v", i, err)
		}
	}
	snap := mon.Snapshot()
	if snap.Seq() != uint64(n) || snap.NumRecords() != n {
		t.Fatalf("converged snapshot seq=%d recs=%d, want seq=%d recs=%d",
			snap.Seq(), snap.NumRecords(), n, n)
	}
	ws := mon.WALStats()
	if ws.Syncs >= n {
		t.Logf("note: no coalescing observed (%d syncs for %d batches)", ws.Syncs, n)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acked batch survives reopen.
	re, err := OpenDurable(dir, cols)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumRecords() != n || re.Seq() != uint64(n) {
		t.Fatalf("recovered seq=%d recs=%d, want %d/%d", re.Seq(), re.NumRecords(), n, n)
	}
}

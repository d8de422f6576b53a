//go:build !race

// The read path borrows its scratch from a sync.Pool, which drops items at
// random under the race detector, so its allocations are pinned only in
// normal builds.

package results_test

import (
	"math/rand"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/results"
)

// memoSink keeps the memo of TestSnapshotQueryAllocs's baseline on the
// heap, where a snapshot keeps its own.
var memoSink map[attrset.Set]bool

// TestSnapshotQueryAllocs pins the read path's allocations: a warm
// Violations allocates only the groups it returns (their headers and one
// ids array; nothing for a valid FD), and a key check that walks the Pli
// groups of a fresh, never-queried snapshot allocates no more than its
// memo entry does on its own.
func TestSnapshotQueryAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const attrs = 4
	e, cols := buildEngine(t, r, attrs, 200, 4)
	snap := e.BuildResults(nil, 0, cols, nil, nil)

	for _, tc := range []struct {
		lhs    attrset.Set
		rhs    int
		allocs float64
	}{
		{attrset.Of(0), 1, 2},
		{attrset.Of(0, 1), 2, 2},
		{attrset.Of(0, 1), 1, 0},
	} {
		groups, _ := snap.Violations(tc.lhs, tc.rhs, 0)
		if (len(groups) > 0) != (tc.allocs > 0) {
			t.Fatalf("Violations(%v -> %d): %d groups", tc.lhs, tc.rhs, len(groups))
		}
		allocs := testing.AllocsPerRun(20, func() { snap.Violations(tc.lhs, tc.rhs, 0) })
		if allocs != tc.allocs {
			t.Errorf("Violations(%v -> %d): %v allocs/op, want %v", tc.lhs, tc.rhs, allocs, tc.allocs)
		}
	}

	// The all-column set has no attribute outside it for the cover to
	// refute, and 200 records over four values per column leave every
	// pivot cluster shared: Unique walks the groups.
	key := attrset.Of(0, 1, 2, 3)
	const runs = 20
	snaps := make([]*results.Snapshot, runs+1)
	for i := range snaps {
		snaps[i] = e.BuildResults(snap, uint64(i+1), cols, nil, nil)
	}
	snap.Unique(key) // warm the pooled scratch
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		snaps[i].Unique(key)
		i++
	})
	memo := testing.AllocsPerRun(runs, func() {
		memoSink = make(map[attrset.Set]bool)
		memoSink[key] = true
	})
	if allocs > memo {
		t.Errorf("fresh Unique: %v allocs/op, its memo alone %v", allocs, memo)
	}
}

package validate

import (
	"fmt"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// TestFDZeroAllocs pins the zero-allocation contract of the validation
// kernel (DESIGN.md §9): with a warm Scratch, Scratch.FD performs no
// allocations per call, across all three rest-width kernels and both the
// pruned and unpruned paths. The pruned bounds cover one and ~50 new
// records, so the pruned path's new-id and cluster-id buffers are pinned
// too.
func TestFDZeroAllocs(t *testing.T) {
	s := randomStore(t, 3, 500, 6, 4)
	sc := NewScratch()
	cases := []struct {
		name string
		lhs  attrset.Set
		rhs  int
	}{
		{"rest=0", attrset.Of(0), 1},
		{"rest=1", attrset.Of(0, 1), 2},
		{"rest=2", attrset.Of(0, 1, 2), 3},
		{"rest=4", attrset.Of(0, 1, 2, 3, 4), 5},
	}
	for _, tc := range cases {
		for _, minNewID := range []int64{NoPruning, s.NextID() - 1, s.NextID() - 50} {
			sc.FD(s, tc.lhs, tc.rhs, minNewID) // warm up the buffers
			allocs := testing.AllocsPerRun(50, func() {
				sc.FD(s, tc.lhs, tc.rhs, minNewID)
			})
			if allocs != 0 {
				t.Errorf("%s minNewID=%d: %v allocs/op, want 0", tc.name, minNewID, allocs)
			}
		}
	}
}

// TestUniqueZeroAllocs pins the same contract for Scratch.Unique, pruned
// and unpruned.
func TestUniqueZeroAllocs(t *testing.T) {
	s := randomStore(t, 5, 500, 6, 4)
	sc := NewScratch()
	for _, cols := range []attrset.Set{attrset.Of(0), attrset.Of(0, 1), attrset.Of(0, 1, 2)} {
		for _, minNewID := range []int64{NoPruning, s.NextID() - 50} {
			sc.Unique(s, cols, minNewID)
			allocs := testing.AllocsPerRun(50, func() {
				sc.Unique(s, cols, minNewID)
			})
			if allocs != 0 {
				t.Errorf("Unique(%v) minNewID=%d: %v allocs/op, want 0", cols, minNewID, allocs)
			}
		}
	}
}

// TestViolationsAllocs pins Scratch.Violations' documented allocation
// budget: a valid FD inspects with zero allocations, and a violating one
// allocates only the returned groups — their headers and one array for
// their IDs.
func TestViolationsAllocs(t *testing.T) {
	valid := buildStore(t, [][]string{
		{"k1", "a"}, {"k1", "a"}, {"k2", "b"}, {"k2", "b"}, {"k3", "a"},
	}, 2)
	sc := NewScratch()
	sc.Violations(valid, attrset.Of(0), 1, 0)
	allocs := testing.AllocsPerRun(50, func() {
		if g, _ := sc.Violations(valid, attrset.Of(0), 1, 0); len(g) != 0 {
			t.Fatal("expected a valid FD")
		}
	})
	if allocs != 0 {
		t.Errorf("valid FD: %v allocs/op, want 0", allocs)
	}

	violating := buildStore(t, [][]string{
		{"k1", "a"}, {"k1", "b"}, {"k2", "c"}, {"k2", "c"},
	}, 2)
	sc.Violations(violating, attrset.Of(0), 1, 0)
	allocs = testing.AllocsPerRun(50, func() {
		if g, _ := sc.Violations(violating, attrset.Of(0), 1, 0); len(g) != 1 {
			t.Fatal("expected one violation group")
		}
	})
	if allocs > 2 {
		t.Errorf("single violation group: %v allocs/op, want <= 2", allocs)
	}
}

// TestFrozenQueryAllocs pins the frozen entry points' budget, the read
// path of a published snapshot: with a warm scratch FrozenUnique allocates
// nothing, whether the cluster count answers or the pivot groups are
// walked, and FrozenViolations allocates only the returned groups (their
// headers and one ids array), nothing for a valid FD.
func TestFrozenQueryAllocs(t *testing.T) {
	s := randomStore(t, 6, 500, 4, 5)
	if _, err := s.Insert([]string{"key", "x", "x", "x"}); err != nil {
		t.Fatal(err)
	}
	f := s.Freeze()
	sc := NewScratch()
	for _, cols := range []attrset.Set{attrset.Of(0), attrset.Of(0, 1), attrset.Of(0, 1, 2)} {
		sc.FrozenUnique(f, cols)
		if allocs := testing.AllocsPerRun(50, func() { sc.FrozenUnique(f, cols) }); allocs != 0 {
			t.Errorf("FrozenUnique(%v): %v allocs/op, want 0", cols, allocs)
		}
	}
	for _, tc := range []struct {
		lhs    attrset.Set
		rhs    int
		max    int
		allocs float64
	}{
		{attrset.Of(0, 1), 1, 0, 0}, // lhs contains rhs: valid
		{attrset.Of(0), 1, 0, 2},
		{attrset.Of(0, 1), 2, 3, 2},
		{attrset.Set{}, 3, 1, 2},
	} {
		sc.FrozenViolations(f, tc.lhs, tc.rhs, tc.max)
		allocs := testing.AllocsPerRun(50, func() { sc.FrozenViolations(f, tc.lhs, tc.rhs, tc.max) })
		if allocs != tc.allocs {
			t.Errorf("FrozenViolations(%v -> %d, max %d): %v allocs/op, want %v", tc.lhs, tc.rhs, tc.max, allocs, tc.allocs)
		}
	}
}

// TestPickPivotDeterministicTieBreak asserts the pivot tie-break: among
// Lhs attributes with equal cluster counts, the lowest attribute index
// wins, making the pivot choice a pure function of the store. The witness
// pair is one too: the pruned path visits clusters in the order of their
// first new record (TestPrunedWitnessDeterministic), the unpruned path in
// ascending cluster-id order.
func TestPickPivotDeterministicTieBreak(t *testing.T) {
	t.Parallel()
	// attrs 0 and 1: two clusters each; attr 2: three clusters.
	s := buildStore(t, [][]string{
		{"a", "x", "1"},
		{"a", "x", "2"},
		{"b", "y", "3"},
		{"b", "y", "1"},
	}, 3)
	if got := pickPivot(s, attrset.Of(0, 1)); got != 0 {
		t.Errorf("pickPivot({0,1}) = %d, want 0 (tie breaks to lowest index)", got)
	}
	if got := pickPivot(s, attrset.Of(1, 2)); got != 2 {
		t.Errorf("pickPivot({1,2}) = %d, want 2 (more clusters wins)", got)
	}
	if got := pickPivot(s, attrset.Of(0, 1, 2)); got != 2 {
		t.Errorf("pickPivot({0,1,2}) = %d, want 2", got)
	}
	for i := 0; i < 100; i++ {
		if got := pickPivot(s, attrset.Of(0, 1)); got != 0 {
			t.Fatalf("pickPivot unstable on run %d: got %d", i, got)
		}
	}
}

// TestViolationsGroupIDsAscending asserts the kernel emits each group's
// IDs in ascending record-id order without sorting, which the pli.Cluster
// invariant (strictly ascending cluster ids) guarantees.
func TestViolationsGroupIDsAscending(t *testing.T) {
	t.Parallel()
	s := randomStore(t, 11, 300, 4, 3)
	for rhs := 0; rhs < 4; rhs++ {
		for a := 0; a < 4; a++ {
			if a == rhs {
				continue
			}
			groups, _ := Violations(s, attrset.Of(a), rhs, 0)
			for _, g := range groups {
				for i := 1; i < len(g.IDs); i++ {
					if g.IDs[i-1] >= g.IDs[i] {
						t.Fatalf("group IDs not strictly ascending: %v", g.IDs)
					}
				}
			}
		}
	}
}

// TestScratchReuseMatchesFresh guards against stale kernel state: a single
// Scratch reused across many different candidates must report exactly what
// a fresh Scratch reports for each.
func TestScratchReuseMatchesFresh(t *testing.T) {
	t.Parallel()
	s := randomStore(t, 17, 250, 5, 3)
	warm := NewScratch()
	for _, r := range allRequests(5) {
		gotValid, gotW := warm.FD(s, r.Lhs, r.Rhs, NoPruning)
		wantValid, _ := NewScratch().FD(s, r.Lhs, r.Rhs, NoPruning)
		if gotValid != wantValid {
			t.Fatalf("FD(%v -> %d): reused scratch = %v, fresh = %v",
				r.Lhs.Slice(), r.Rhs, gotValid, wantValid)
		}
		if !gotValid {
			checkWitness(t, s, r, gotW)
		}
	}
}

// TestKernelMatchesLegacyGrouping cross-checks the open-addressing kernel
// against a simple map-based reference grouping (the pre-kernel
// implementation) over many random stores and candidates.
func TestKernelMatchesLegacyGrouping(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 8; seed++ {
		s := randomStore(t, 100+seed, 120, 5, 2+int(seed%3))
		sc := NewScratch()
		for _, r := range allRequests(5) {
			got, w := sc.FD(s, r.Lhs, r.Rhs, NoPruning)
			want := legacyFDValid(s, r.Lhs, r.Rhs)
			if got != want {
				t.Fatalf("seed %d: FD(%v -> %d) = %v, legacy = %v",
					seed, r.Lhs.Slice(), r.Rhs, got, want)
			}
			if !got {
				checkWitness(t, s, Request{Lhs: r.Lhs, Rhs: r.Rhs}, w)
			}
		}
	}
}

// legacyFDValid is the original map-and-byte-key grouping, kept as a test
// oracle for the kernel.
func legacyFDValid(s *pli.Store, lhs attrset.Set, rhs int) bool {
	if s.NumRecords() <= 1 {
		return true
	}
	if lhs.IsEmpty() {
		ok, _ := constantColumn(s, rhs)
		return ok
	}
	pivot := pickPivot(s, lhs)
	restAttrs := lhs.Without(pivot).Slice()
	valid := true
	s.Index(pivot).ForEachCluster(func(_ int32, c *pli.Cluster) bool {
		if c.Size() < 2 {
			return true
		}
		groups := make(map[string]int32)
		for _, id := range c.IDs {
			rec, _ := s.Record(id)
			key := ""
			for _, a := range restAttrs {
				key += fmt.Sprintf("%d,", rec[a])
			}
			if prev, ok := groups[key]; ok {
				if prev != rec[rhs] {
					valid = false
					return false
				}
				continue
			}
			groups[key] = rec[rhs]
		}
		return true
	})
	return valid
}

package results_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/core"
	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/pli"
	"dynfd/internal/results"
	"dynfd/internal/stream"
	"dynfd/internal/validate"
)

// buildEngine bootstraps a core engine over random rows.
func buildEngine(t *testing.T, r *rand.Rand, attrs, rows, domain int) (*core.Engine, []string) {
	t.Helper()
	cols := make([]string, attrs)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	rel := dataset.New("t", cols)
	for i := 0; i < rows; i++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(domain))
		}
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	e, err := core.Bootstrap(rel, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e, cols
}

// randomBatch mixes inserts, deletes, and updates over the engine's live
// ids.
func randomBatch(r *rand.Rand, e *core.Engine, attrs, size, domain int) stream.Batch {
	var live []int64
	e.ForEachRecord(func(id int64, _ []string) bool {
		live = append(live, id)
		return true
	})
	randRow := func() []string {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(domain))
		}
		return row
	}
	var changes []stream.Change
	touched := map[int64]bool{}
	for c := 0; c < size; c++ {
		op := r.Intn(4)
		if len(live) == 0 {
			op = 0
		}
		switch op {
		case 0, 1:
			changes = append(changes, stream.Change{Kind: stream.Insert, Values: randRow()})
		case 2:
			id := live[r.Intn(len(live))]
			if touched[id] {
				continue
			}
			touched[id] = true
			changes = append(changes, stream.Change{Kind: stream.Delete, ID: id})
		case 3:
			id := live[r.Intn(len(live))]
			if touched[id] {
				continue
			}
			touched[id] = true
			changes = append(changes, stream.Change{Kind: stream.Update, ID: id, Values: randRow()})
		}
	}
	return stream.Batch{Changes: changes}
}

// liveRows returns the live relation as id-ordered rows.
func liveRows(e *core.Engine) [][]string {
	_, rows := liveRecords(e)
	return rows
}

// liveRecords returns the live relation's ids, ascending, and their rows.
func liveRecords(e *core.Engine) ([]int64, [][]string) {
	var ids []int64
	var rows [][]string
	e.ForEachRecord(func(id int64, values []string) bool {
		ids = append(ids, id)
		rows = append(rows, append([]string(nil), values...))
		return true
	})
	return ids, rows
}

// bruteViolations is the oracle violation inspection over id-ordered
// rows: group by the lhs projection, keep the groups with two or more
// distinct rhs values (in first-member order, ids ascending), cap them at
// max (<= 0: all) and sum each group's size less its most frequent rhs
// value into g3.
func bruteViolations(ids []int64, rows [][]string, lhs []int, rhs, max int) ([]results.ViolationGroup, float64) {
	if len(rows) <= 1 {
		return nil, 0
	}
	index := map[string]int{}
	var members [][]int64
	var counts []map[string]int
	for i, row := range rows {
		var b strings.Builder
		for _, c := range lhs {
			b.WriteString(row[c])
			b.WriteByte(0)
		}
		g, ok := index[b.String()]
		if !ok {
			g = len(members)
			index[b.String()] = g
			members = append(members, nil)
			counts = append(counts, map[string]int{})
		}
		members[g] = append(members[g], ids[i])
		counts[g][row[rhs]]++
	}
	var out []results.ViolationGroup
	removals := 0
	for g, ms := range members {
		if len(counts[g]) < 2 {
			continue
		}
		plurality := 0
		for _, n := range counts[g] {
			if n > plurality {
				plurality = n
			}
		}
		removals += len(ms) - plurality
		out = append(out, results.ViolationGroup{IDs: ms, RhsValues: len(counts[g])})
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, float64(removals) / float64(len(rows))
}

// sameViolations reports whether two inspections returned the same groups,
// member ids, distinct-rhs counts and g3.
func sameViolations(a []results.ViolationGroup, ag3 float64, b []results.ViolationGroup, bg3 float64) bool {
	return ag3 == bg3 && slices.EqualFunc(a, b, func(x, y results.ViolationGroup) bool {
		return x.RhsValues == y.RhsValues && slices.Equal(x.IDs, y.IDs)
	})
}

// bruteUnique is the oracle key check: pairwise-distinct projections.
func bruteUnique(rows [][]string, cols []int) bool {
	if len(rows) <= 1 {
		return true
	}
	if len(cols) == 0 {
		return false
	}
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		var b strings.Builder
		for _, c := range cols {
			b.WriteString(row[c])
			b.WriteByte(0)
		}
		k := b.String()
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// bruteINDs is the oracle IND listing: value-set inclusion over live rows.
func bruteINDs(rows [][]string, attrs int) []results.UnaryIND {
	vals := make([]map[string]bool, attrs)
	for a := range vals {
		vals[a] = map[string]bool{}
	}
	for _, row := range rows {
		for a, v := range row {
			vals[a][v] = true
		}
	}
	var out []results.UnaryIND
	for i := 0; i < attrs; i++ {
		for j := 0; j < attrs; j++ {
			if i == j {
				continue
			}
			included := true
			for v := range vals[i] {
				if !vals[j][v] {
					included = false
					break
				}
			}
			if included {
				out = append(out, results.UnaryIND{Lhs: i, Rhs: j})
			}
		}
	}
	return out
}

func indsEqual(a, b []results.UnaryIND) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSnapshot verifies one snapshot against the engine it was built from
// and the brute-force oracles.
func checkSnapshot(t *testing.T, r *rand.Rand, e *core.Engine, s *results.Snapshot, attrs int) {
	t.Helper()
	if got, want := s.NumRecords(), e.NumRecords(); got != want {
		t.Fatalf("NumRecords: snapshot %d, engine %d", got, want)
	}
	if !fd.Equal(s.FDs(), e.FDs()) {
		t.Fatalf("FDs diverged:\n snap %v\n eng  %v", s.FDs(), e.FDs())
	}
	if !fd.Equal(s.NonFDs(), e.NonFDs()) {
		t.Fatalf("NonFDs diverged:\n snap %v\n eng  %v", s.NonFDs(), e.NonFDs())
	}
	// Per-RHS covers partition the FD set.
	var cat []fd.FD
	for rhs := 0; rhs < attrs; rhs++ {
		for _, f := range s.CoverOf(rhs) {
			if f.Rhs != rhs {
				t.Fatalf("CoverOf(%d) holds %v", rhs, f)
			}
			cat = append(cat, f)
		}
	}
	if !fd.Equal(cat, s.FDs()) {
		t.Fatalf("CoverOf concatenation != FDs:\n %v\n %v", cat, s.FDs())
	}

	ids, rows := liveRecords(e)

	// Holds on random candidates.
	for trial := 0; trial < 30; trial++ {
		var lhs attrset.Set
		for a := 0; a < attrs; a++ {
			if r.Intn(2) == 0 {
				lhs = lhs.With(a)
			}
		}
		rhs := r.Intn(attrs)
		if got, want := s.Holds(lhs, rhs), e.Holds(lhs.Slice(), rhs); got != want {
			t.Fatalf("Holds(%v -> %d): snapshot %v, engine %v", lhs, rhs, got, want)
		}
	}

	// Unique on random column sets (twice: second call hits the memo).
	for trial := 0; trial < 20; trial++ {
		var cols attrset.Set
		for a := 0; a < attrs; a++ {
			if r.Intn(3) == 0 {
				cols = cols.With(a)
			}
		}
		if cols.IsEmpty() {
			cols = attrset.Of(r.Intn(attrs))
		}
		want := bruteUnique(rows, cols.Slice())
		if got := s.Unique(cols); got != want {
			t.Fatalf("Unique(%v): snapshot %v, oracle %v (rows %v)", cols, got, want, rows)
		}
		if got := s.Unique(cols); got != want {
			t.Fatalf("Unique(%v) memoized: snapshot %v, oracle %v", cols, got, want)
		}
	}

	// INDs against the value-set oracle (memoized second call included).
	wantINDs := bruteINDs(rows, attrs)
	if got := s.INDs(); !indsEqual(got, wantINDs) {
		t.Fatalf("INDs diverged:\n snap %v\n want %v\n rows %v", got, wantINDs, rows)
	}
	if got := s.INDs(); !indsEqual(got, wantINDs) {
		t.Fatalf("INDs memoized call diverged: %v", got)
	}

	// Violations against the engine's live store and the brute-force
	// oracle. Some candidates keep rhs in lhs (never violated); max runs
	// from 0 (all) past any group count.
	for trial := 0; trial < 15; trial++ {
		var lhs attrset.Set
		for a := 0; a < attrs; a++ {
			if r.Intn(2) == 0 {
				lhs = lhs.With(a)
			}
		}
		rhs := r.Intn(attrs)
		if lhs.Contains(rhs) && r.Intn(3) > 0 {
			lhs = lhs.Without(rhs)
		}
		max := []int{0, 1, 2, 3, 1000}[r.Intn(5)]
		gotG, gotErr := s.Violations(lhs, rhs, max)
		if oracleG, oracleErr := bruteViolations(ids, rows, lhs.Slice(), rhs, max); !sameViolations(gotG, gotErr, oracleG, oracleErr) {
			t.Fatalf("Violations(%v -> %d, max %d): snapshot %v g3=%v, oracle %v g3=%v",
				lhs, rhs, max, gotG, gotErr, oracleG, oracleErr)
		}
		wantG, wantErr := e.Violations(lhs.Slice(), rhs, max)
		if gotErr != wantErr {
			t.Fatalf("Violations(%v -> %d) g3: snapshot %v, engine %v", lhs, rhs, gotErr, wantErr)
		}
		if len(gotG) != len(wantG) {
			t.Fatalf("Violations(%v -> %d): %d groups vs %d", lhs, rhs, len(gotG), len(wantG))
		}
		for i := range gotG {
			if gotG[i].RhsValues != wantG[i].RhsValues {
				t.Fatalf("group %d RhsValues: %d vs %d", i, gotG[i].RhsValues, wantG[i].RhsValues)
			}
			if len(gotG[i].IDs) != len(wantG[i].IDs) {
				t.Fatalf("group %d size: %d vs %d", i, len(gotG[i].IDs), len(wantG[i].IDs))
			}
			for k := range gotG[i].IDs {
				if gotG[i].IDs[k] != wantG[i].IDs[k] {
					t.Fatalf("group %d ids: %v vs %v", i, gotG[i].IDs, wantG[i].IDs)
				}
			}
			if !sort.SliceIsSorted(gotG[i].IDs, func(a, b int) bool { return gotG[i].IDs[a] < gotG[i].IDs[b] }) {
				t.Fatalf("group %d ids not ascending: %v", i, gotG[i].IDs)
			}
		}
	}
}

// TestSnapshotMatchesEngine streams random batches and verifies that the
// copy-on-write snapshot chain answers every query exactly like the engine
// (and the brute-force oracles) at each sequence.
func TestSnapshotMatchesEngine(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			const attrs = 4
			e, cols := buildEngine(t, r, attrs, 30, 4)
			snap := e.BuildResults(nil, 0, cols, nil, nil)
			checkSnapshot(t, r, e, snap, attrs)
			for b := 0; b < 12; b++ {
				res, err := e.ApplyBatch(randomBatch(r, e, attrs, 8, 4))
				if err != nil {
					t.Fatal(err)
				}
				snap = e.BuildResults(snap, uint64(b+1), cols, res.Added, res.Removed)
				if snap.Seq() != uint64(b+1) {
					t.Fatalf("Seq = %d, want %d", snap.Seq(), b+1)
				}
				checkSnapshot(t, r, e, snap, attrs)
			}
		})
	}
}

// sameBacking reports whether two FD slices share their backing array —
// the observable form of copy-on-write cover sharing.
func sameBacking(a, b []fd.FD) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return &a[0] == &b[0]
}

// TestSnapshotCopyOnWriteSharing asserts the sharing rules: per-RHS cover
// slices not named in the diff alias the predecessor's, an empty diff
// shares the entire cover, and a predecessor from a different store is
// never shared against.
func TestSnapshotCopyOnWriteSharing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const attrs = 4
	e, cols := buildEngine(t, r, attrs, 40, 3)
	s0 := e.BuildResults(nil, 0, cols, nil, nil)

	// Empty diff: whole cover and every per-RHS slice shared.
	s1 := e.BuildResults(s0, 1, cols, nil, nil)
	if !sameBacking(s0.FDs(), s1.FDs()) {
		t.Fatal("empty diff: FDs not shared with predecessor")
	}
	if !sameBacking(s0.NonFDs(), s1.NonFDs()) {
		t.Fatal("empty diff: NonFDs not shared with predecessor")
	}
	for rhs := 0; rhs < attrs; rhs++ {
		if !sameBacking(s0.CoverOf(rhs), s1.CoverOf(rhs)) {
			t.Fatalf("empty diff: CoverOf(%d) not shared", rhs)
		}
	}

	// Batches until one actually changes the cover, then check untouched
	// right-hand sides still alias.
	prev := s1
	for b := 0; b < 50; b++ {
		res, err := e.ApplyBatch(randomBatch(r, e, attrs, 6, 3))
		if err != nil {
			t.Fatal(err)
		}
		next := e.BuildResults(prev, uint64(b+2), cols, res.Added, res.Removed)
		var touched attrset.Set
		for _, f := range res.Added {
			touched = touched.With(f.Rhs)
		}
		for _, f := range res.Removed {
			touched = touched.With(f.Rhs)
		}
		if !touched.IsEmpty() {
			for rhs := 0; rhs < attrs; rhs++ {
				if touched.Contains(rhs) {
					continue
				}
				if !sameBacking(prev.CoverOf(rhs), next.CoverOf(rhs)) {
					t.Fatalf("batch %d: untouched CoverOf(%d) not shared (touched %v)", b, rhs, touched)
				}
			}
		}
		prev = next
	}

	// A predecessor built from a different store must not poison the
	// result: full rebuild, still exact.
	r2 := rand.New(rand.NewSource(8))
	e2, cols2 := buildEngine(t, r2, attrs, 35, 3)
	foreign := e2.BuildResults(prev, 99, cols2, nil, nil)
	if !fd.Equal(foreign.FDs(), e2.FDs()) {
		t.Fatalf("foreign-prev snapshot diverged:\n snap %v\n eng  %v", foreign.FDs(), e2.FDs())
	}
	checkSnapshot(t, r2, e2, foreign, attrs)
}

// TestSnapshotImmutableUnderMutation verifies snapshot isolation: a frozen
// snapshot keeps answering from its own sequence while the engine moves on.
//
// It holds three snapshots of a relation whose column c0 starts as a key:
// the bootstrap one; one after deletes left id gaps, with c0 still a key
// (its key checks take the cluster-count short-circuit); and one after
// exact duplicate tuples arrived, so c0 and the all-column superkey are no
// longer unique. Random batches then compact and splice the clusters the
// held snapshots were frozen with, and a last batch deletes every record
// they held, killing all their clusters. Each held snapshot's Unique and
// Violations — every column set; every lhs, empty and holding rhs
// included, with every rhs; max 0, 1 and past the group count — must
// still equal the brute-force oracle on its own rows and validate on a
// store loaded from those rows with their ids.
func TestSnapshotImmutableUnderMutation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const attrs, domain = 4, 3
	cols := []string{"c0", "c1", "c2", "c3"}
	keyed := 0
	keyedRow := func() []string {
		keyed++
		row := []string{fmt.Sprint("k", keyed)}
		for a := 1; a < attrs; a++ {
			row = append(row, fmt.Sprint(r.Intn(domain)))
		}
		return row
	}
	rel := dataset.New("t", cols)
	for i := 0; i < 25; i++ {
		if err := rel.Append(keyedRow()); err != nil {
			t.Fatal(err)
		}
	}
	e, err := core.Bootstrap(rel, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	snap := e.BuildResults(nil, seq, cols, nil, nil)
	apply := func(changes []stream.Change) {
		t.Helper()
		res, err := e.ApplyBatch(stream.Batch{Changes: changes})
		if err != nil {
			t.Fatal(err)
		}
		seq++
		snap = e.BuildResults(snap, seq, cols, res.Added, res.Removed)
	}

	type held struct {
		snap  *results.Snapshot
		ids   []int64
		rows  [][]string
		fds   []fd.FD
		inds  []results.UnaryIND
		key   bool // c0 is a key
		dupes bool // some tuples are exact duplicates
	}
	var kept []held
	hold := func(key, dupes bool) {
		t.Helper()
		ids, rows := liveRecords(e)
		if got := bruteUnique(rows, []int{0}); got != key {
			t.Fatalf("held snapshot %d: c0 unique %v, want %v", len(kept), got, key)
		}
		if got := !bruteUnique(rows, []int{0, 1, 2, 3}); got != dupes {
			t.Fatalf("held snapshot %d: duplicate tuples %v, want %v", len(kept), got, dupes)
		}
		kept = append(kept, held{snap, ids, rows, slices.Clone(snap.FDs()), slices.Clone(snap.INDs()), key, dupes})
	}
	hold(true, false)

	// Deletes and keyed inserts: id gaps, c0 still a key.
	for b := 0; b < 3; b++ {
		ids, _ := liveRecords(e)
		var changes []stream.Change
		for _, k := range r.Perm(len(ids))[:4] {
			changes = append(changes, stream.Change{Kind: stream.Delete, ID: ids[k]})
		}
		for i := 0; i < 3; i++ {
			changes = append(changes, stream.Change{Kind: stream.Insert, Values: keyedRow()})
		}
		apply(changes)
	}
	hold(true, false)

	// Exact duplicates of live tuples.
	_, rows := liveRecords(e)
	var dupes []stream.Change
	for _, k := range r.Perm(len(rows))[:4] {
		dupes = append(dupes, stream.Change{Kind: stream.Insert, Values: rows[k]})
	}
	apply(dupes)
	hold(false, true)

	for b := 0; b < 20; b++ {
		apply(randomBatch(r, e, attrs, 10, domain).Changes)
	}
	var wipe []stream.Change
	wiped := map[int64]bool{}
	for _, h := range kept {
		for _, id := range h.ids {
			if _, ok := e.Record(id); ok && !wiped[id] {
				wiped[id] = true
				wipe = append(wipe, stream.Change{Kind: stream.Delete, ID: id})
			}
		}
	}
	for i := 0; i < 5; i++ {
		wipe = append(wipe, stream.Change{Kind: stream.Insert, Values: keyedRow()})
	}
	apply(wipe)

	for i, h := range kept {
		if h.snap.NumRecords() != len(h.rows) {
			t.Fatalf("held %d: NumRecords moved: %d -> %d", i, len(h.rows), h.snap.NumRecords())
		}
		if !fd.Equal(h.snap.FDs(), h.fds) {
			t.Fatalf("held %d: FDs moved under mutation: %v -> %v", i, h.fds, h.snap.FDs())
		}
		if got := h.snap.INDs(); !indsEqual(got, h.inds) {
			t.Fatalf("held %d: INDs moved under mutation: %v -> %v", i, h.inds, got)
		}
		checkHeld(t, h.snap, h.ids, h.rows, attrs)
		if h.snap.Unique(attrset.Of(0)) != h.key {
			t.Fatalf("held %d: Unique({c0}) = %v, want %v", i, !h.key, h.key)
		}
		if h.dupes && h.snap.Unique(attrset.Of(0, 1, 2, 3)) {
			t.Fatalf("held %d: the all-column superkey is unique despite duplicate tuples", i)
		}
	}
}

// checkHeld compares a snapshot's key and violation queries, over every
// column set and every candidate, with the brute-force oracle on rows and
// with validate on a store loaded from ids and rows.
func checkHeld(t *testing.T, s *results.Snapshot, ids []int64, rows [][]string, attrs int) {
	t.Helper()
	store := pli.NewStore(attrs)
	for i, id := range ids {
		if err := store.InsertWithID(id, rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	for mask := 0; mask < 1<<attrs; mask++ {
		var set attrset.Set
		for a := 0; a < attrs; a++ {
			if mask&(1<<a) != 0 {
				set = set.With(a)
			}
		}
		want := bruteUnique(rows, set.Slice())
		if got, _ := validate.Unique(store, set, validate.NoPruning); got != want {
			t.Fatalf("validate.Unique(%v) on loaded store = %v, oracle %v", set, got, want)
		}
		if got := s.Unique(set); got != want {
			t.Fatalf("Unique(%v) = %v, oracle %v", set, got, want)
		}
		for rhs := 0; rhs < attrs; rhs++ {
			all, _ := bruteViolations(ids, rows, set.Slice(), rhs, 0)
			for _, max := range []int{0, 1, len(all) + 1} {
				wantG, wantG3 := bruteViolations(ids, rows, set.Slice(), rhs, max)
				gotG, gotG3 := s.Violations(set, rhs, max)
				if !sameViolations(gotG, gotG3, wantG, wantG3) {
					t.Fatalf("Violations(%v -> %d, max %d) = %v g3=%v, oracle %v g3=%v",
						set, rhs, max, gotG, gotG3, wantG, wantG3)
				}
				liveG, liveG3 := validate.Violations(store, set, rhs, max)
				if !sameViolations(gotG, gotG3, liveG, liveG3) {
					t.Fatalf("Violations(%v -> %d, max %d) = %v g3=%v, validate on loaded store %v g3=%v",
						set, rhs, max, gotG, gotG3, liveG, liveG3)
				}
			}
		}
	}
}

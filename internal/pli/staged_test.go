package pli

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dynfd/internal/fanout/fanouttest"
)

// buildStagedStore returns a store with n random rows over w attributes.
func buildStagedStore(t *testing.T, rng *rand.Rand, w, n int) *Store {
	t.Helper()
	s := NewStore(w)
	for i := 0; i < n; i++ {
		row := make([]string, w)
		for a := range row {
			row[a] = fmt.Sprintf("v%d", rng.Intn(4))
		}
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// randomBatch picks deletes from the live ids and fresh inserts.
func randomBatch(rng *rand.Rand, s *Store, w int) (deletes []int64, inserts []BatchInsert) {
	var live []int64
	s.ForEachRecord(func(id int64, _ Record) bool {
		live = append(live, id)
		return true
	})
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	nd := rng.Intn(len(live)/2 + 1)
	deletes = append(deletes, live[:nd]...)
	id := s.NextID()
	for i := 0; i < rng.Intn(6); i++ {
		row := make([]string, w)
		for a := range row {
			row[a] = fmt.Sprintf("v%d", rng.Intn(4))
		}
		inserts = append(inserts, BatchInsert{ID: id, Values: row})
		id++
	}
	return deletes, inserts
}

// dumpStore renders the full logical content for equivalence comparison.
func dumpStore(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "next=%d recs=%d\n", s.NextID(), s.NumRecords())
	s.ForEachRecord(func(id int64, _ Record) bool {
		vals, ok := s.Values(id)
		if !ok {
			t.Fatalf("record %d unreadable", id)
		}
		fmt.Fprintf(&b, "%d: %v\n", id, vals)
		return true
	})
	return b.String()
}

// TestStagedEquivalence drives the same random batches through ApplyBatch
// inline (GOMAXPROCS 1) and through its per-attribute fan-out (GOMAXPROCS
// 4), comparing the full store content after every batch. Run under -race
// in CI, this is also the proof that concurrent per-shard maintenance is
// data-race free.
func TestStagedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		const w = 5
		ref := buildStagedStore(t, rngA, w, 40)
		st := buildStagedStore(t, rngB, w, 40)
		for batch := 0; batch < 15; batch++ {
			deletes, inserts := randomBatch(rngA, ref, w)
			deletesB, insertsB := randomBatch(rngB, st, w)
			fanouttest.SetGOMAXPROCS(t, 1)
			if err := ref.ApplyBatch(deletes, inserts); err != nil {
				t.Fatal(err)
			}
			fanouttest.SetGOMAXPROCS(t, 4)
			if err := st.ApplyBatch(deletesB, insertsB); err != nil {
				t.Fatal(err)
			}
			if err := st.CheckConsistency(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			if got, want := dumpStore(t, st), dumpStore(t, ref); got != want {
				t.Fatalf("seed %d batch %d: staged store diverged\nstaged:\n%s\nref:\n%s",
					seed, batch, got, want)
			}
		}
	}
}

// TestStagedGuards covers the staging-window protocol errors behind
// ApplyBatch: mutators and CheckConsistency rejected while open (the state
// a maintenance panic leaves), finish with unmaintained shards, runAttr
// misuse panics, and the epoch-skew invariant.
func TestStagedGuards(t *testing.T) {
	t.Parallel()
	s := NewStore(3)
	for i := 0; i < 4; i++ {
		if _, err := s.Insert([]string{"a", "b", fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}

	s.runAttrMustPanic(t, 0)

	if err := s.stageBatch([]int64{0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert([]string{"x", "y", "z"}); err == nil {
		t.Error("Insert accepted during staging")
	}
	if err := s.Delete(1); err == nil {
		t.Error("Delete accepted during staging")
	}
	if err := s.InsertWithID(99, []string{"x", "y", "z"}); err == nil {
		t.Error("InsertWithID accepted during staging")
	}
	if err := s.SetNextID(99); err == nil {
		t.Error("SetNextID accepted during staging")
	}
	if err := s.stageBatch(nil, nil); err == nil {
		t.Error("second stageBatch accepted during staging")
	}
	if err := s.ApplyBatch(nil, nil); err == nil {
		t.Error("ApplyBatch accepted during staging")
	}
	if err := s.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "staged batch open") {
		t.Errorf("CheckConsistency during staging = %v", err)
	}

	s.runAttr(0)
	s.runAttr(1)
	if err := s.finish(); err == nil || !strings.Contains(err.Error(), "attribute 2 not maintained") {
		t.Errorf("finish with unmaintained shard = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second runAttr(0) in one staging window did not panic")
			}
		}()
		s.runAttr(0)
	}()
	s.runAttr(2)
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := s.finish(); err == nil {
		t.Error("finish without staged batch accepted")
	}

	// Epoch skew: simulate a batch that reached only some shards.
	s.shards[1].epoch.Add(1)
	if err := s.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "skewed") {
		t.Errorf("CheckConsistency with skewed epochs = %v", err)
	}
}

// runAttrMustPanic asserts runAttr panics without a staged batch.
func (s *Store) runAttrMustPanic(t *testing.T, a int) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("runAttr without staged batch did not panic")
		}
	}()
	s.runAttr(a)
}

// TestAppendLiveFrom checks the live-id walk that cluster pruning uses to
// find a batch's new records: ids come out ascending, dead ids and freed
// pages are skipped, a staged batch's inserts are included (and its
// deletes excluded) before finish, and a start beyond the arena yields
// nothing. Starts on word and page boundaries and inside words are
// compared against a filter over ForEachRecord.
func TestAppendLiveFrom(t *testing.T) {
	t.Parallel()
	const w = 2
	s := NewStore(w)
	for i := 0; i < 3*pageSize+100; i++ {
		if _, err := s.Insert([]string{fmt.Sprint(i % 7), fmt.Sprint(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the whole second page (freed) and every third id elsewhere.
	var deletes []int64
	for id := int64(0); id < s.NextID(); id++ {
		if id>>pageBits == 1 || id%3 == 0 {
			deletes = append(deletes, id)
		}
	}
	if err := s.ApplyBatch(deletes, nil); err != nil {
		t.Fatal(err)
	}
	if s.live[1] != nil {
		t.Fatal("precondition: page 1 should be freed")
	}
	want := func(from int64) []int64 {
		var ids []int64
		s.ForEachRecord(func(id int64, _ Record) bool {
			if id >= from {
				ids = append(ids, id)
			}
			return true
		})
		return ids
	}
	check := func(label string) {
		t.Helper()
		for _, from := range []int64{-5, 0, 1, 63, 64, 65, pageSize - 1, pageSize, 2*pageSize + 7,
			s.NextID() - 1, s.NextID(), s.NextID() + 10*pageSize} {
			got := s.AppendLiveFrom(nil, from)
			if fmt.Sprint(got) != fmt.Sprint(want(from)) {
				t.Fatalf("%s: AppendLiveFrom(%d) = %v, want %v", label, from, got, want(from))
			}
		}
	}
	check("after batch")
	if got := s.AppendLiveFrom([]int64{-1}, s.NextID()); len(got) != 1 || got[0] != -1 {
		t.Fatalf("from at the horizon must append nothing, got %v", got)
	}

	// Inside a staging window: inserts (with a gap — an id born and deleted
	// within the batch never becomes live) are live, deletes are not.
	minNew := s.NextID()
	ins := []BatchInsert{
		{ID: minNew, Values: []string{"x", "y"}},
		{ID: minNew + 2, Values: []string{"0", "0"}},
		{ID: minNew + pageSize, Values: []string{"1", "1"}},
	}
	last := want(0)[len(want(0))-1]
	if err := s.stageBatch([]int64{last}, ins); err != nil {
		t.Fatal(err)
	}
	got := s.AppendLiveFrom(nil, last)
	if fmt.Sprint(got) != fmt.Sprint([]int64{minNew, minNew + 2, minNew + pageSize}) {
		t.Fatalf("staged: AppendLiveFrom(%d) = %v, want the staged inserts only", last, got)
	}
	for a := 0; a < w; a++ {
		s.runAttr(a)
	}
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	check("after finish")
}

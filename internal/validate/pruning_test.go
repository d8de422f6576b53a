package validate

import (
	"fmt"
	"math/rand"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// plantedRow draws a row over five attributes in which {0,1} -> 2 and
// {0} -> 3 hold and attribute 4 is nearly unique, so many candidates are
// valid and a few noisy rows break some of them in only a few clusters.
// With noisy set, one random attribute is redrawn.
func plantedRow(r *rand.Rand, domain int, noisy bool) []string {
	v := []int{r.Intn(domain), r.Intn(domain), 0, 0, r.Intn(domain * domain * 8)}
	v[2] = (3*v[0] + v[1]) % domain
	v[3] = v[0] % 3
	if noisy {
		v[r.Intn(len(v))] = r.Intn(domain)
	}
	row := make([]string, len(v))
	for a, x := range v {
		row[a] = fmt.Sprint(x)
	}
	return row
}

// applyRandomBatch applies a batch to s that deletes a random share of the
// live records and inserts fresh planted rows, a few of them noisy; some
// ids in the insert range are skipped, which is how a record born and
// deleted within the same batch looks to the store. It returns the batch's
// first new id.
func applyRandomBatch(t *testing.T, r *rand.Rand, s *pli.Store, domain int) int64 {
	t.Helper()
	var deletes []int64
	s.ForEachRecord(func(id int64, _ pli.Record) bool {
		if r.Intn(5) == 0 {
			deletes = append(deletes, id)
		}
		return true
	})
	minNew := s.NextID()
	var inserts []pli.BatchInsert
	id := minNew
	for i := 0; i < 1+r.Intn(12); i++ {
		if r.Intn(4) == 0 {
			id++ // born and deleted within the batch
		}
		inserts = append(inserts, pli.BatchInsert{ID: id, Values: plantedRow(r, domain, r.Intn(4) == 0)})
		id++
	}
	if err := s.ApplyBatch(deletes, inserts); err != nil {
		t.Fatal(err)
	}
	return minNew
}

// checkNewWitness asserts w is a pair of distinct live records that agree
// on lhs, differ on rhs (rhs < 0: no Rhs, a uniqueness collision), and
// include at least one record with id >= minNew.
func checkNewWitness(t *testing.T, s *pli.Store, lhs attrset.Set, rhs int, minNew int64, w Witness) {
	t.Helper()
	ra, okA := s.Record(w.A)
	rb, okB := s.Record(w.B)
	if !okA || !okB || w.A == w.B {
		t.Fatalf("witness %v for %v -> %d is not a pair of live records", w, lhs.Slice(), rhs)
	}
	agree := AgreeSet(ra, rb)
	if !lhs.IsSubsetOf(agree) || rhs >= 0 && agree.Contains(rhs) {
		t.Fatalf("witness %v does not violate %v -> %d", w, lhs.Slice(), rhs)
	}
	if w.A < minNew && w.B < minNew {
		t.Fatalf("witness %v for %v -> %d holds no record >= %d", w, lhs.Slice(), rhs, minNew)
	}
}

// TestPrunedMatchesUnpruned is the equivalence property of cluster
// pruning: for every candidate that was valid before a batch, pruned
// validation at the batch's first new id reports exactly the validity of
// full validation after the batch is applied, and a failing pruned check
// names a real violating pair that involves a new record. A bound beyond the id horizon selects no cluster, so it reports
// valid for every candidate with a non-empty Lhs. Unique is held to the
// same properties.
func TestPrunedMatchesUnpruned(t *testing.T) {
	t.Parallel()
	const attrs = 5
	reqs := allRequests(attrs)
	var colSets []attrset.Set
	for m := 1; m < 1<<attrs; m++ {
		var cols attrset.Set
		for a := 0; a < attrs; a++ {
			if m&(1<<a) != 0 {
				cols = cols.With(a)
			}
		}
		colSets = append(colSets, cols)
	}
	sc := NewScratch()
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		domain := 3 + r.Intn(10)
		s := pli.NewStore(attrs)
		for i := 0; i < 20+r.Intn(120); i++ {
			if _, err := s.Insert(plantedRow(r, domain, false)); err != nil {
				t.Fatal(err)
			}
		}
		var validFDs []Request
		for _, q := range reqs {
			if ok, _ := sc.FD(s, q.Lhs, q.Rhs, NoPruning); ok {
				validFDs = append(validFDs, q)
			}
		}
		var uniqueCols []attrset.Set
		for _, cols := range colSets {
			if ok, _ := sc.Unique(s, cols, NoPruning); ok {
				uniqueCols = append(uniqueCols, cols)
			}
		}
		minNew := applyRandomBatch(t, r, s, domain)
		horizon := minNew + 1<<20
		for _, q := range validFDs {
			want, _ := sc.FD(s, q.Lhs, q.Rhs, NoPruning)
			got, w := sc.FD(s, q.Lhs, q.Rhs, minNew)
			if got != want {
				t.Fatalf("seed %d: FD(%v -> %d) pruned = %v, full = %v",
					seed, q.Lhs.Slice(), q.Rhs, got, want)
			}
			if !got {
				checkNewWitness(t, s, q.Lhs, q.Rhs, minNew, w)
			}
		}
		for _, q := range reqs {
			if ok, _ := sc.FD(s, q.Lhs, q.Rhs, horizon); !ok && !q.Lhs.IsEmpty() {
				t.Fatalf("seed %d: FD(%v -> %d) beyond the horizon = invalid",
					seed, q.Lhs.Slice(), q.Rhs)
			}
		}
		for _, cols := range uniqueCols {
			want, _ := sc.Unique(s, cols, NoPruning)
			got, w := sc.Unique(s, cols, minNew)
			if got != want {
				t.Fatalf("seed %d: Unique(%v) pruned = %v, full = %v",
					seed, cols.Slice(), got, want)
			}
			if !got {
				checkNewWitness(t, s, cols, -1, minNew, w)
			}
		}
		for _, cols := range colSets {
			if ok, _ := sc.Unique(s, cols, horizon); !ok {
				t.Fatalf("seed %d: Unique(%v) beyond the horizon = not unique",
					seed, cols.Slice())
			}
		}
	}
}

// TestPrunedWitnessDeterministic pins that the pruned path reports a
// witness that is a pure function of the store: pivot clusters are
// visited in the order of their first new record, so repeated calls and
// identically built stores agree. The batch below breaks the candidates in
// many pivot clusters at once, so a walk in any unstable order would
// report different pairs from call to call.
func TestPrunedWitnessDeterministic(t *testing.T) {
	t.Parallel()
	build := func() (*pli.Store, int64) {
		s := randomStore(t, 7, 400, 4, 40)
		minNew := s.NextID()
		r := rand.New(rand.NewSource(8))
		for i := 0; i < 60; i++ {
			row := []string{fmt.Sprint(r.Intn(40)), fmt.Sprint(r.Intn(40)), "new", "new"}
			if _, err := s.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		return s, minNew
	}
	a, minNew := build()
	b, _ := build()
	lhs, cols := attrset.Of(0, 1), attrset.Of(0)
	if ok, _ := FD(a, lhs, 2, minNew); ok {
		t.Fatal("precondition: the batch should break {0,1} -> 2")
	}
	_, wantFD := FD(a, lhs, 2, minNew)
	_, wantU := Unique(a, cols, minNew)
	for i := 0; i < 100; i++ {
		if _, w := NewScratch().FD(a, lhs, 2, minNew); w != wantFD {
			t.Fatalf("call %d: FD witness %v, first call %v", i, w, wantFD)
		}
		if _, w := NewScratch().Unique(a, cols, minNew); w != wantU {
			t.Fatalf("call %d: Unique witness %v, first call %v", i, w, wantU)
		}
	}
	if _, w := FD(b, lhs, 2, minNew); w != wantFD {
		t.Fatalf("identically built store: FD witness %v, want %v", w, wantFD)
	}
	if _, w := Unique(b, cols, minNew); w != wantU {
		t.Fatalf("identically built store: Unique witness %v, want %v", w, wantU)
	}
}

package validate

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// agreeRow draws a row over attrs attributes with planted dependencies:
// every third attribute is a function of the two before it, one attribute
// is nearly unique, and the rest come from small domains, so both valid and
// invalid candidates of every width occur.
func agreeRow(r *rand.Rand, attrs, domain int) []string {
	v := make([]int, attrs)
	for a := range v {
		switch {
		case a == attrs-1:
			v[a] = r.Intn(domain * domain * 16)
		case a%3 == 2:
			v[a] = (3*v[a-2] + v[a-1]) % domain
		default:
			v[a] = r.Intn(domain)
		}
	}
	row := make([]string, attrs)
	for a, x := range v {
		row[a] = fmt.Sprint(x)
	}
	return row
}

// applyMixedBatch applies a batch to s that mixes deletes, inserts and
// updates (an update deletes a record and inserts a copy with a few values
// redrawn, often breaking a planted dependency), and skips some ids as
// records born and deleted within the batch. It returns the batch's first
// new id.
func applyMixedBatch(t *testing.T, r *rand.Rand, s *pli.Store, domain int) int64 {
	t.Helper()
	attrs := s.NumAttrs()
	var live []int64
	s.ForEachRecord(func(id int64, _ pli.Record) bool {
		live = append(live, id)
		return true
	})
	minNew := s.NextID()
	id := minNew
	var deletes []int64
	var inserts []pli.BatchInsert
	dead := make(map[int64]bool)
	for i := 0; i < 2+r.Intn(24); i++ {
		if r.Intn(5) == 0 {
			id++ // born and deleted within the batch
		}
		switch op := r.Intn(4); {
		case op == 0 && len(live) > 0: // delete
			if victim := live[r.Intn(len(live))]; !dead[victim] {
				dead[victim] = true
				deletes = append(deletes, victim)
			}
			continue
		case op == 1 && len(live) > 0: // update
			victim := live[r.Intn(len(live))]
			if dead[victim] {
				continue
			}
			dead[victim] = true
			deletes = append(deletes, victim)
			row, _ := s.Values(victim)
			for k := 0; k < 1+r.Intn(2); k++ {
				row[r.Intn(attrs)] = fmt.Sprint(r.Intn(domain))
			}
			inserts = append(inserts, pli.BatchInsert{ID: id, Values: row})
		default: // insert, sometimes a noisy copy of a planted row
			row := agreeRow(r, attrs, domain)
			if r.Intn(3) == 0 {
				row[r.Intn(attrs)] = fmt.Sprint(r.Intn(domain))
			}
			inserts = append(inserts, pli.BatchInsert{ID: id, Values: row})
		}
		id++
	}
	if err := s.ApplyBatch(deletes, inserts); err != nil {
		t.Fatal(err)
	}
	return minNew
}

// randomLhs draws an Lhs of 1..maxWidth attributes, none of them rhs.
func randomLhs(r *rand.Rand, attrs, rhs, maxWidth int) attrset.Set {
	var lhs attrset.Set
	for w := 1 + r.Intn(maxWidth); lhs.Count() < w; {
		if a := r.Intn(attrs); a != rhs {
			lhs = lhs.With(a)
		}
	}
	return lhs
}

// canonicalWitness is the brute-force reference of the index's witness:
// among the violating pairs (A < B) of lhs → rhs that hold a record
// >= minNew, the one with the smallest B, then the smallest A.
func canonicalWitness(s *pli.Store, lhs attrset.Set, rhs int, minNew int64) (Witness, bool) {
	var live []int64
	s.ForEachRecord(func(id int64, _ pli.Record) bool {
		live = append(live, id)
		return true
	})
	for _, b := range live {
		if b < minNew {
			continue
		}
		rb := s.Rec(b)
		for _, a := range live {
			if a >= b {
				break
			}
			ra := s.Rec(a)
			if agree := AgreeSet(ra, rb); lhs.IsSubsetOf(agree) && !agree.Contains(rhs) {
				return Witness{A: a, B: b}, true
			}
		}
	}
	return Witness{}, false
}

// indexedPairs counts the pairs the index must have compared once each:
// unordered pairs of distinct live records, at least one of them new,
// that agree on at least one built pivot.
func indexedPairs(s *pli.Store, built attrset.Set, minNew int64) int {
	var live []int64
	s.ForEachRecord(func(id int64, _ pli.Record) bool {
		live = append(live, id)
		return true
	})
	n := 0
	for i, b := range live {
		for _, a := range live[:i] {
			if b < minNew {
				break
			}
			if AgreeSet(s.Rec(a), s.Rec(b)).Intersects(built) {
				n++
			}
		}
	}
	return n
}

// TestAgreeIndexMatchesFullValidation is the index's correctness property.
// Random stores over 3-12 attributes and one 70-column schema (multi-word
// masks) take batches mixing inserts, deletes and updates, including ids
// born and deleted within the batch. For every candidate that was valid
// before the batch, the index's verdict equals full validation, and an
// invalid verdict carries the canonical witness: the brute-force smallest
// violating pair (by B, then A), which holds a new record, and which the
// pruned kernel reports too. Each seed answers the candidates three ways —
// under the default build policy, after building every attribute in a
// random order, and from four goroutines at once — and must agree on every
// witness, and every build compares each indexed pair exactly once.
func TestAgreeIndexMatchesFullValidation(t *testing.T) {
	t.Parallel()
	widths := []int{70}
	for w := 3; w <= 12; w++ {
		widths = append(widths, w)
	}
	for _, attrs := range widths {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("attrs=%d/seed=%d", attrs, seed), func(t *testing.T) {
				t.Parallel()
				checkAgreeIndex(t, attrs, seed)
			})
		}
	}
}

func checkAgreeIndex(t *testing.T, attrs int, seed int64) {
	r := rand.New(rand.NewSource(seed*1000 + int64(attrs)))
	domain := 2 + r.Intn(5)
	s := pli.NewStore(attrs)
	for i := 0; i < 30+r.Intn(90); i++ {
		if _, err := s.Insert(agreeRow(r, attrs, domain)); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewScratch()
	var cands []Request
	for i := 0; i < 250; i++ {
		rhs := r.Intn(attrs)
		if i%5 == 0 && attrs > 64 {
			rhs = 64 + r.Intn(attrs-64) // a Rhs in the second mask word
		}
		lhs := randomLhs(r, attrs, rhs, min(attrs-1, 5))
		if ok, _ := sc.FD(s, lhs, rhs, NoPruning); ok {
			cands = append(cands, Request{Lhs: lhs, Rhs: rhs})
		}
	}
	minNew := applyMixedBatch(t, r, s, domain)

	want := make([]Outcome, len(cands))
	for i, q := range cands {
		want[i].Valid, _ = sc.FD(s, q.Lhs, q.Rhs, NoPruning)
		if want[i].Valid {
			continue
		}
		w, ok := canonicalWitness(s, q.Lhs, q.Rhs, minNew)
		if !ok {
			t.Fatalf("%v -> %d: invalid, but no violating pair holds a new record", q.Lhs.Slice(), q.Rhs)
		}
		want[i].Witness = w
		if ok, kw := sc.FD(s, q.Lhs, q.Rhs, minNew); ok || kw != w {
			t.Fatalf("%v -> %d: pruned kernel = (%v, %v), want canonical witness %v",
				q.Lhs.Slice(), q.Rhs, ok, kw, w)
		}
	}

	check := func(mode string, ix *AgreeIndex, got []Outcome, policy bool) {
		t.Helper()
		for i, q := range cands {
			if got[i] != want[i] {
				t.Fatalf("%s: %v -> %d: index = %+v, want %+v", mode, q.Lhs.Slice(), q.Rhs, got[i], want[i])
			}
			if !got[i].Valid {
				checkNewWitness(t, s, q.Lhs, q.Rhs, minNew, got[i].Witness)
			}
		}
		c := ix.Counters()
		if n := indexedPairs(s, ix.built, minNew); c.Pairs != n {
			t.Fatalf("%s: index compared %d pairs, want each of %d indexed pairs once", mode, c.Pairs, n)
		}
		if policy && c.Pairs > c.KernelVisits {
			t.Fatalf("%s: %d pairs exceed the %d kernel visits they replace", mode, c.Pairs, c.KernelVisits)
		}
	}

	// Default build policy, one goroutine.
	var ix AgreeIndex
	ix.Open(s, minNew)
	got := make([]Outcome, len(cands))
	for i, q := range cands {
		got[i] = One(sc, s, &ix, q)
	}
	check("default", &ix, got, true)

	// Every attribute built up front, in a random order: any build order
	// indexes every pair once and yields the same witnesses.
	ix.Open(s, minNew)
	for _, p := range r.Perm(attrs) {
		ix.build(p)
	}
	for i, q := range cands {
		got[i] = One(sc, s, &ix, q)
	}
	check("all built", &ix, got, false)

	// Concurrent lookups and builds on a fresh index.
	ix.Open(s, minNew)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gsc := NewScratch()
			for i := g; i < len(cands); i += 4 {
				got[i] = One(gsc, s, &ix, cands[i])
			}
		}(g)
	}
	wg.Wait()
	check("concurrent", &ix, got, true)
}

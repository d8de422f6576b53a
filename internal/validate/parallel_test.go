package validate

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// randomStore builds a store with n records over attrs attributes drawn
// from a small value domain, so both valid and invalid candidates occur.
func randomStore(t testing.TB, seed int64, n, attrs, domain int) *pli.Store {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := pli.NewStore(attrs)
	for i := 0; i < n; i++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(domain))
		}
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// allRequests enumerates every non-trivial candidate (lhs → rhs) with
// |lhs| <= 2 — enough to cover empty, singleton, and multi-attribute
// pivot/rest paths in FD.
func allRequests(attrs int) []Request {
	var reqs []Request
	for rhs := 0; rhs < attrs; rhs++ {
		reqs = append(reqs, Request{Lhs: attrset.Set{}, Rhs: rhs})
		for a := 0; a < attrs; a++ {
			if a == rhs {
				continue
			}
			reqs = append(reqs, Request{Lhs: attrset.Of(a), Rhs: rhs})
			for b := a + 1; b < attrs; b++ {
				if b == rhs {
					continue
				}
				reqs = append(reqs, Request{Lhs: attrset.Of(a, b), Rhs: rhs})
			}
		}
	}
	return reqs
}

// checkWitness verifies that w is a live record pair violating the request.
func checkWitness(t *testing.T, s *pli.Store, r Request, w Witness) {
	t.Helper()
	ra, okA := s.Record(w.A)
	rb, okB := s.Record(w.B)
	if !okA || !okB {
		t.Errorf("witness (%d,%d) for %v -> %d has dead records", w.A, w.B, r.Lhs.Slice(), r.Rhs)
		return
	}
	if !r.Lhs.IsSubsetOf(AgreeSet(ra, rb)) || ra[r.Rhs] == rb[r.Rhs] {
		t.Errorf("witness (%d,%d) does not violate %v -> %d", w.A, w.B, r.Lhs.Slice(), r.Rhs)
	}
}

// TestFanConcurrentStress fans every candidate validation of one shared
// store across several goroutines, each calling One with its own Scratch,
// and checks each outcome against a serial validation; run with -race it
// proves the reader-only contract of pli.Store holds through the full
// validation code path the engine's sweeps take.
func TestFanConcurrentStress(t *testing.T) {
	t.Parallel()
	s := randomStore(t, 7, 400, 6, 4)
	reqs := allRequests(6)
	want := make([]bool, len(reqs))
	for i, r := range reqs {
		want[i], _ = FD(s, r.Lhs, r.Rhs, NoPruning)
	}
	const goroutines = 8
	for round := 0; round < 4; round++ {
		out := make([]Outcome, len(reqs))
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sc := NewScratch()
				for i := g; i < len(reqs); i += goroutines {
					out[i] = One(sc, s, nil, reqs[i])
				}
			}(g)
		}
		wg.Wait()
		for i, r := range reqs {
			if out[i].Valid != want[i] {
				t.Errorf("request %d (%v -> %d): Valid = %v, want %v",
					i, r.Lhs.Slice(), r.Rhs, out[i].Valid, want[i])
				continue
			}
			if !out[i].Valid {
				checkWitness(t, s, r, out[i].Witness)
			}
		}
	}
}

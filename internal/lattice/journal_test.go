package lattice

import (
	"math/rand"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/fd"
)

// TestJournalReportsNetChanges drives random mutation runs through a
// journaled Cover and Flipped and checks AppendChanges against a
// brute-force diff of the full before and after states: exactly the slots
// whose membership or witness differs, in fd.Less order, with their
// before-membership and current entry.
func TestJournalReportsNetChanges(t *testing.T) {
	t.Parallel()
	const attrs = 5
	r := rand.New(rand.NewSource(1))
	randFD := func() fd.FD {
		var lhs attrset.Set
		for a := 0; a < attrs; a++ {
			if r.Intn(3) == 0 {
				lhs = lhs.With(a)
			}
		}
		rhs := r.Intn(attrs)
		return fd.FD{Lhs: lhs.Without(rhs), Rhs: rhs}
	}
	for _, v := range []View{New(attrs), NewFlipped(attrs)} {
		state := func() map[fd.FD]Entry {
			m := map[fd.FD]Entry{}
			for _, f := range v.All() {
				w, ok := v.Violation(f.Lhs, f.Rhs)
				m[f] = Entry{Present: true, HasWitness: ok, Witness: w}
			}
			return m
		}
		v.StartJournal()
		for run := 0; run < 200; run++ {
			before := state()
			v.ResetJournal()
			for op := r.Intn(8); op >= 0; op-- {
				f := randFD()
				switch r.Intn(5) {
				case 0, 1:
					v.Add(f.Lhs, f.Rhs)
				case 2:
					v.Remove(f.Lhs, f.Rhs)
				case 3:
					v.SetViolation(f.Lhs, f.Rhs, Violation{A: int64(r.Intn(3)), B: int64(r.Intn(3))})
				case 4:
					v.RemoveSpecializations(f.Lhs, f.Rhs)
				}
			}
			after := state()
			slots := map[fd.FD]bool{}
			for f := range before {
				slots[f] = true
			}
			for f := range after {
				slots[f] = true
			}
			var want []Change
			for f := range slots {
				if b, a := before[f], after[f]; b != a {
					want = append(want, Change{FD: f, Was: b.Present, Now: a})
				}
			}
			sortChanges(want)
			got := v.AppendChanges(nil)
			if len(got) != len(want) {
				t.Fatalf("run %d: %d changes, want %d:\n got %v\nwant %v", run, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("run %d change %d: %+v, want %+v", run, i, got[i], want[i])
				}
			}
		}
	}
}

// Package fd defines the functional dependency value type shared by the
// discovery algorithms, the covers, and the public API, together with
// small utilities for sorting, comparing and minimizing FD sets.
package fd

import (
	"fmt"
	"sort"

	"dynfd/internal/attrset"
)

// FD is a functional dependency candidate Lhs → Rhs. An FD is non-trivial
// iff !Lhs.Contains(Rhs); all FDs handled by this repository are non-trivial.
type FD struct {
	Lhs attrset.Set
	Rhs int
}

// String renders the FD with numeric attribute indexes, e.g. "{0, 2} -> 4".
func (f FD) String() string {
	return fmt.Sprintf("%s -> %d", f.Lhs, f.Rhs)
}

// Names renders the FD with column names, e.g. "[zip] -> city".
func (f FD) Names(cols []string) string { return string(f.AppendNames(nil, cols)) }

// AppendNames appends Names(cols) to dst and returns the extended slice.
func (f FD) AppendNames(dst []byte, cols []string) []byte {
	dst = append(f.Lhs.AppendNames(dst, cols), " -> "...)
	return attrset.AppendName(dst, cols, f.Rhs)
}

// Less defines a total order over FDs: by Rhs, then by Lhs size, then by
// the lexicographic order of the Lhs bit pattern.
func Less(a, b FD) bool {
	if a.Rhs != b.Rhs {
		return a.Rhs < b.Rhs
	}
	ca, cb := a.Lhs.Count(), b.Lhs.Count()
	if ca != cb {
		return ca < cb
	}
	for w := len(a.Lhs) - 1; w >= 0; w-- {
		if a.Lhs[w] != b.Lhs[w] {
			return a.Lhs[w] < b.Lhs[w]
		}
	}
	return false
}

// Sort orders fds in place by Less.
func Sort(fds []FD) {
	sort.Slice(fds, func(i, j int) bool { return Less(fds[i], fds[j]) })
}

// Equal reports whether a and b contain the same FDs, ignoring order.
// Both slices are sorted in place.
func Equal(a, b []FD) bool {
	if len(a) != len(b) {
		return false
	}
	Sort(a)
	Sort(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Minimize returns the minimal FDs of the given set: every FD for which no
// other FD with the same Rhs has a proper subset Lhs. Duplicates are removed.
func Minimize(fds []FD) []FD {
	byRhs := make(map[int][]attrset.Set)
	for _, f := range fds {
		byRhs[f.Rhs] = append(byRhs[f.Rhs], f.Lhs)
	}
	var out []FD
	for rhs, lhss := range byRhs {
		// Sort by size so potential generalizations come first.
		sort.Slice(lhss, func(i, j int) bool { return lhss[i].Count() < lhss[j].Count() })
		var kept []attrset.Set
	next:
		for _, l := range lhss {
			for _, k := range kept {
				if k.IsSubsetOf(l) {
					continue next // covered (or duplicate)
				}
			}
			kept = append(kept, l)
			out = append(out, FD{Lhs: l, Rhs: rhs})
		}
	}
	Sort(out)
	return out
}

// Follows reports whether the candidate FD is implied by the given set of
// valid FDs, i.e. whether some FD with the same Rhs has Lhs ⊆ cand.Lhs.
// A trivial candidate (Rhs ∈ Lhs) always follows.
func Follows(valid []FD, cand FD) bool {
	if cand.Lhs.Contains(cand.Rhs) {
		return true
	}
	for _, f := range valid {
		if f.Rhs == cand.Rhs && f.Lhs.IsSubsetOf(cand.Lhs) {
			return true
		}
	}
	return false
}

// Diff computes the FDs added and removed when moving from the set old to
// the set new. Both inputs are sorted in place.
func Diff(oldFDs, newFDs []FD) (added, removed []FD) {
	Sort(oldFDs)
	Sort(newFDs)
	i, j := 0, 0
	for i < len(oldFDs) && j < len(newFDs) {
		switch {
		case oldFDs[i] == newFDs[j]:
			i++
			j++
		case Less(oldFDs[i], newFDs[j]):
			removed = append(removed, oldFDs[i])
			i++
		default:
			added = append(added, newFDs[j])
			j++
		}
	}
	removed = append(removed, oldFDs[i:]...)
	added = append(added, newFDs[j:]...)
	return added, removed
}

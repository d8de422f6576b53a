// Package attrset provides fixed-width bitsets over attribute (column)
// indexes. A Set is the left-hand side of a functional dependency candidate
// and the node label type of the FD lattice.
//
// Set is an array, hence comparable and usable as a map key; the zero value
// is the empty set. It supports up to MaxAttrs attributes, which comfortably
// covers the widest evaluation dataset of the DynFD paper (actor, 83 columns).
package attrset

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxAttrs is the largest attribute index (exclusive) a Set can hold.
const MaxAttrs = 256

const numWords = MaxAttrs / 64

// Set is a bitset over attribute indexes [0, MaxAttrs). Sets are value
// types: all methods return new sets and never mutate the receiver.
type Set [numWords]uint64

// Of returns the set containing exactly the given attributes.
// It panics if an attribute is out of range, as that is a programming error.
func Of(attrs ...int) Set {
	var s Set
	for _, a := range attrs {
		s = s.With(a)
	}
	return s
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) Set {
	if n < 0 || n > MaxAttrs {
		panic(fmt.Sprintf("attrset: Full(%d) out of range", n))
	}
	var s Set
	for w := 0; n > 0; w++ {
		if n >= 64 {
			s[w] = ^uint64(0)
			n -= 64
		} else {
			s[w] = (uint64(1) << uint(n)) - 1
			n = 0
		}
	}
	return s
}

// With returns s ∪ {a}. Out-of-range attributes panic through the array
// index, as in the other element operations.
func (s Set) With(a int) Set {
	s[a>>6] |= uint64(1) << uint(a&63)
	return s
}

// Without returns s \ {a}.
func (s Set) Without(a int) Set {
	s[a>>6] &^= uint64(1) << uint(a&63)
	return s
}

// Contains reports whether a ∈ s.
func (s Set) Contains(a int) bool {
	return s[a>>6]&(uint64(1)<<uint(a&63)) != 0
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	for w := range s {
		s[w] |= t[w]
	}
	return s
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	for w := range s {
		s[w] &= t[w]
	}
	return s
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	for w := range s {
		s[w] &^= t[w]
	}
	return s
}

// IsSubsetOf reports whether s ⊆ t.
func (s Set) IsSubsetOf(t Set) bool {
	for w := range s {
		if s[w]&^t[w] != 0 {
			return false
		}
	}
	return true
}

// IsProperSubsetOf reports whether s ⊂ t.
func (s Set) IsProperSubsetOf(t Set) bool {
	return s != t && s.IsSubsetOf(t)
}

// IsSupersetOf reports whether s ⊇ t.
func (s Set) IsSupersetOf(t Set) bool { return t.IsSubsetOf(s) }

// Intersects reports whether s ∩ t ≠ ∅.
func (s Set) Intersects(t Set) bool {
	for w := range s {
		if s[w]&t[w] != 0 {
			return true
		}
	}
	return false
}

// IsEmpty reports whether s = ∅.
func (s Set) IsEmpty() bool {
	for w := range s {
		if s[w] != 0 {
			return false
		}
	}
	return true
}

// Count returns |s|.
func (s Set) Count() int {
	n := 0
	for w := range s {
		n += bits.OnesCount64(s[w])
	}
	return n
}

// First returns the smallest attribute in s, or -1 if s is empty.
func (s Set) First() int {
	for w := range s {
		if s[w] != 0 {
			return w*64 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// Next returns the smallest attribute in s that is strictly greater than a,
// or -1 if there is none. Pass a = -1 to start from the beginning.
func (s Set) Next(a int) int {
	a++
	if a >= MaxAttrs {
		return -1
	}
	w := a / 64
	word := s[w] & (^uint64(0) << uint(a%64))
	for {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
		w++
		if w >= numWords {
			return -1
		}
		word = s[w]
	}
}

// Slice returns the attributes of s in ascending order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Count())
	for a := s.First(); a >= 0; a = s.Next(a) {
		out = append(out, a)
	}
	return out
}

// ForEach calls fn for every attribute in s in ascending order. Iteration
// stops early if fn returns false.
func (s Set) ForEach(fn func(a int) bool) {
	for a := s.First(); a >= 0; a = s.Next(a) {
		if !fn(a) {
			return
		}
	}
}

// String renders s like "{0, 3, 7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for a := s.First(); a >= 0; a = s.Next(a) {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", a)
		first = false
	}
	b.WriteByte('}')
	return b.String()
}

// Names renders s using the given column names, e.g. "[zip, city]".
func (s Set) Names(cols []string) string { return string(s.AppendNames(nil, cols)) }

// AppendNames appends Names(cols) to dst and returns the extended slice.
func (s Set) AppendNames(dst []byte, cols []string) []byte {
	dst = append(dst, '[')
	first := true
	for a := s.First(); a >= 0; a = s.Next(a) {
		if !first {
			dst = append(dst, ", "...)
		}
		dst = AppendName(dst, cols, a)
		first = false
	}
	return append(dst, ']')
}

// AppendName appends the name of attribute a to dst: cols[a], or
// "col<a>" when cols has no name for it.
func AppendName(dst []byte, cols []string, a int) []byte {
	if a < len(cols) {
		return append(dst, cols[a]...)
	}
	return strconv.AppendInt(append(dst, "col"...), int64(a), 10)
}

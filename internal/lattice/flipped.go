package lattice

import (
	"dynfd/internal/attrset"
	"dynfd/internal/fd"
)

// View is the cover interface shared by Cover and Flipped, so that the
// algorithms can treat positive and negative covers uniformly.
type View interface {
	NumAttrs() int
	Size() int
	LevelSize(level int) int
	MaxLevel() int
	Add(lhs attrset.Set, rhs int) bool
	Remove(lhs attrset.Set, rhs int) bool
	Contains(lhs attrset.Set, rhs int) bool
	ContainsGeneralization(lhs attrset.Set, rhs int) bool
	ContainsSpecialization(lhs attrset.Set, rhs int) bool
	Generalizations(lhs attrset.Set, rhs int) []attrset.Set
	Specializations(lhs attrset.Set, rhs int) []attrset.Set
	RemoveGeneralizations(lhs attrset.Set, rhs int) []attrset.Set
	RemoveSpecializations(lhs attrset.Set, rhs int) []attrset.Set
	Level(level int) []fd.FD
	AppendLevel(dst []fd.FD, level int) []fd.FD
	All() []fd.FD
	SetViolation(lhs attrset.Set, rhs int, v Violation) bool
	Violation(lhs attrset.Set, rhs int) (Violation, bool)
	ClearViolation(lhs attrset.Set, rhs int)
	CheckMinimal() error
	StartJournal()
	ResetJournal()
	AppendChanges(dst []Change) []Change
}

var (
	_ View = (*Cover)(nil)
	_ View = (*Flipped)(nil)
)

// Flipped is a cover that stores every member under the complement of its
// Lhs. Generalization and specialization queries swap under
// complementation (X ⊆ Y ⟺ X̄ ⊇ Ȳ), so a Flipped cover answers
// specialization searches with the cheaper generalization walk and vice
// versa.
//
// Use it for the negative cover: maximal non-FDs have near-full Lhs sets,
// which would make a direct prefix tree deep with expensive superset
// searches, while their complements are small. The paper's Java
// implementation faces the same asymmetry; storing complements is the
// established remedy for dense covers.
type Flipped struct {
	inner *Cover
	full  attrset.Set
}

// NewFlipped returns an empty complement-keyed cover.
func NewFlipped(numAttrs int) *Flipped {
	return &Flipped{inner: New(numAttrs), full: attrset.Full(numAttrs)}
}

// comp complements an Lhs within the schema universe minus nothing — the
// Rhs attribute stays in the complement if absent from the Lhs, which is
// harmless because all queries complement consistently.
func (f *Flipped) comp(lhs attrset.Set) attrset.Set { return f.full.Diff(lhs) }

func (f *Flipped) compAll(in []attrset.Set) []attrset.Set {
	for i := range in {
		in[i] = f.comp(in[i])
	}
	return in
}

func (f *Flipped) compFDs(in []fd.FD) []fd.FD {
	for i := range in {
		in[i].Lhs = f.comp(in[i].Lhs)
	}
	fd.Sort(in)
	return in
}

// NumAttrs returns the schema width.
func (f *Flipped) NumAttrs() int { return f.inner.NumAttrs() }

// Size returns the number of members.
func (f *Flipped) Size() int { return f.inner.Size() }

// LevelSize returns the number of members with the given Lhs cardinality.
func (f *Flipped) LevelSize(level int) int {
	return f.inner.LevelSize(f.inner.numAttrs - level)
}

// MaxLevel returns the largest Lhs cardinality present, or -1 when empty.
func (f *Flipped) MaxLevel() int {
	max := -1
	for l := 0; l <= f.inner.numAttrs; l++ {
		if f.inner.LevelSize(f.inner.numAttrs-l) > 0 {
			max = l
		}
	}
	return max
}

// Add inserts the member (lhs → rhs) and reports whether it was new.
func (f *Flipped) Add(lhs attrset.Set, rhs int) bool { return f.inner.Add(f.comp(lhs), rhs) }

// Remove deletes the member (lhs → rhs) and reports whether it existed.
func (f *Flipped) Remove(lhs attrset.Set, rhs int) bool { return f.inner.Remove(f.comp(lhs), rhs) }

// Contains reports whether (lhs → rhs) is a member.
func (f *Flipped) Contains(lhs attrset.Set, rhs int) bool {
	return f.inner.Contains(f.comp(lhs), rhs)
}

// ContainsGeneralization reports whether a member (lhs' → rhs) with
// lhs' ⊆ lhs exists.
func (f *Flipped) ContainsGeneralization(lhs attrset.Set, rhs int) bool {
	return f.inner.ContainsSpecialization(f.comp(lhs), rhs)
}

// ContainsSpecialization reports whether a member (lhs' → rhs) with
// lhs' ⊇ lhs exists.
func (f *Flipped) ContainsSpecialization(lhs attrset.Set, rhs int) bool {
	return f.inner.ContainsGeneralization(f.comp(lhs), rhs)
}

// Generalizations returns the Lhs of every member with lhs' ⊆ lhs.
func (f *Flipped) Generalizations(lhs attrset.Set, rhs int) []attrset.Set {
	return f.compAll(f.inner.Specializations(f.comp(lhs), rhs))
}

// Specializations returns the Lhs of every member with lhs' ⊇ lhs.
func (f *Flipped) Specializations(lhs attrset.Set, rhs int) []attrset.Set {
	return f.compAll(f.inner.Generalizations(f.comp(lhs), rhs))
}

// RemoveGeneralizations removes every member with lhs' ⊆ lhs.
func (f *Flipped) RemoveGeneralizations(lhs attrset.Set, rhs int) []attrset.Set {
	return f.compAll(f.inner.RemoveSpecializations(f.comp(lhs), rhs))
}

// RemoveSpecializations removes every member with lhs' ⊇ lhs.
func (f *Flipped) RemoveSpecializations(lhs attrset.Set, rhs int) []attrset.Set {
	return f.compAll(f.inner.RemoveGeneralizations(f.comp(lhs), rhs))
}

// Level returns all members with the given Lhs cardinality, sorted.
func (f *Flipped) Level(level int) []fd.FD {
	if level < 0 || level > f.inner.numAttrs {
		return nil
	}
	return f.compFDs(f.inner.Level(f.inner.numAttrs - level))
}

// AppendLevel appends all members with the given Lhs cardinality to dst,
// sorted, and returns the extended slice (Level with a reusable buffer).
func (f *Flipped) AppendLevel(dst []fd.FD, level int) []fd.FD {
	if level < 0 || level > f.inner.numAttrs {
		return dst
	}
	base := len(dst)
	dst = f.inner.AppendLevel(dst, f.inner.numAttrs-level)
	for i := base; i < len(dst); i++ {
		dst[i].Lhs = f.comp(dst[i].Lhs)
	}
	fd.Sort(dst[base:])
	return dst
}

// All returns every member, sorted.
func (f *Flipped) All() []fd.FD { return f.compFDs(f.inner.All()) }

// SetViolation attaches a violating record pair to (lhs → rhs).
func (f *Flipped) SetViolation(lhs attrset.Set, rhs int, v Violation) bool {
	return f.inner.SetViolation(f.comp(lhs), rhs, v)
}

// Violation returns the annotated violating pair of (lhs → rhs), if any.
func (f *Flipped) Violation(lhs attrset.Set, rhs int) (Violation, bool) {
	return f.inner.Violation(f.comp(lhs), rhs)
}

// ClearViolation drops the annotation of (lhs → rhs).
func (f *Flipped) ClearViolation(lhs attrset.Set, rhs int) {
	f.inner.ClearViolation(f.comp(lhs), rhs)
}

// CheckMinimal verifies the antichain invariant (complementation preserves
// it: no member may specialize another member with the same Rhs).
func (f *Flipped) CheckMinimal() error { return f.inner.CheckMinimal() }

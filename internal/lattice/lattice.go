// Package lattice implements the FD prefix tree (paper §3.2) that DynFD
// uses for both the positive cover (all minimal FDs) and the negative cover
// (all maximal non-FDs).
//
// Each tree node represents one Lhs attribute; the attributes along a path
// from the root are strictly ascending and form a Lhs; a bitset annotation
// at the node marks the Rhs attributes for which (path → rhs) is a cover
// member. A second bitset per node holds the union of all annotations in
// the node's subtree, which lets the generalization / specialization
// searches prune whole branches.
//
// Negative-cover nodes can additionally carry a violating record pair per
// Rhs — the "surrogate violation" of paper §5.2 that lets delete handling
// skip re-validations while both witnesses are still alive.
//
// Following the usual FD-tree convention, the *Generalization /
// *Specialization methods treat an equal Lhs as both a generalization and a
// specialization (i.e. they test ⊆ / ⊇, not ⊂ / ⊃).
package lattice

import (
	"fmt"
	"strings"

	"dynfd/internal/attrset"
	"dynfd/internal/fd"
)

// Violation is a pair of record ids whose tuples agree on an FD's Lhs but
// differ on its Rhs, proving the FD invalid.
type Violation struct {
	A, B int64
}

type node struct {
	attrs    []int       // sorted attributes of the children (parallel slices)
	children []*node     // child nodes; path attributes strictly ascend
	fds      attrset.Set // rhs attrs ending exactly at this node
	subtree  attrset.Set // union of fds over this node and all descendants
	viol     map[int]Violation
}

func (n *node) violation(rhs int) (Violation, bool) {
	v, ok := n.viol[rhs]
	return v, ok
}

func (n *node) setViolation(rhs int, v Violation) {
	if n.viol == nil {
		n.viol = make(map[int]Violation)
	}
	n.viol[rhs] = v
}

// Cover is an FD prefix tree over a fixed schema width. The zero value is
// not usable; construct covers with New.
//
// Concurrency contract: a Cover is safe for any number of concurrent
// readers (Contains, ContainsGeneralization/-Specialization, the
// collection methods, Level, All, Violation) as long as no goroutine
// mutates it; Add, Remove, the Remove* sweeps, SetViolation,
// ClearViolation, CheckMinimal (which temporarily mutates), and the
// journal methods (journal.go) require exclusive access. DynFD's parallel
// validation engine keeps all cover access on the engine goroutine —
// workers only read the Pli store — but the read-only guarantee is part of the package's API surface and is
// exercised under the race detector by TestCoverConcurrentReaders.
type Cover struct {
	numAttrs int
	root     *node
	size     int
	levels   []int    // number of cover members per lhs cardinality
	journal  *journal // touched slots since the last reset (journal.go); nil = off
}

// New returns an empty cover for a schema with numAttrs attributes.
func New(numAttrs int) *Cover {
	if numAttrs <= 0 || numAttrs > attrset.MaxAttrs {
		panic(fmt.Sprintf("lattice: invalid attribute count %d", numAttrs))
	}
	return &Cover{
		numAttrs: numAttrs,
		root:     &node{},
		levels:   make([]int, numAttrs+1),
	}
}

// NumAttrs returns the schema width the cover was created for.
func (c *Cover) NumAttrs() int { return c.numAttrs }

// Size returns the number of (Lhs, Rhs) members.
func (c *Cover) Size() int { return c.size }

// LevelSize returns the number of members whose Lhs has the given
// cardinality.
func (c *Cover) LevelSize(level int) int {
	if level < 0 || level >= len(c.levels) {
		return 0
	}
	return c.levels[level]
}

// MaxLevel returns the largest Lhs cardinality present, or -1 when empty.
func (c *Cover) MaxLevel() int {
	for l := len(c.levels) - 1; l >= 0; l-- {
		if c.levels[l] > 0 {
			return l
		}
	}
	return -1
}

// Add inserts the member (lhs → rhs) and reports whether it was new.
func (c *Cover) Add(lhs attrset.Set, rhs int) bool {
	c.note(lhs, rhs)
	n := c.root
	n.subtree = n.subtree.With(rhs)
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		child := n.child(a)
		if child == nil {
			child = &node{}
			n.addChild(a, child)
		}
		n = child
		n.subtree = n.subtree.With(rhs)
	}
	if n.fds.Contains(rhs) {
		// Already present; the speculative subtree bits we just set are
		// correct regardless.
		return false
	}
	n.fds = n.fds.With(rhs)
	c.size++
	c.levels[lhs.Count()]++
	return true
}

// Remove deletes the member (lhs → rhs) and reports whether it existed.
func (c *Cover) Remove(lhs attrset.Set, rhs int) bool {
	c.note(lhs, rhs)
	// Collect the path so subtree bits can be rebuilt bottom-up.
	path := make([]*node, 0, lhs.Count()+1)
	attrs := make([]int, 0, lhs.Count())
	n := c.root
	path = append(path, n)
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		child := n.child(a)
		if child == nil {
			return false
		}
		n = child
		path = append(path, n)
		attrs = append(attrs, a)
	}
	if !n.fds.Contains(rhs) {
		return false
	}
	n.fds = n.fds.Without(rhs)
	delete(n.viol, rhs)
	c.size--
	c.levels[lhs.Count()]--
	// Recompute subtree annotations along the path and prune dead nodes.
	for i := len(path) - 1; i >= 0; i-- {
		nd := path[i]
		sub := nd.fds
		for _, ch := range nd.children {
			sub = sub.Union(ch.subtree)
		}
		nd.subtree = sub
		if i > 0 && sub.IsEmpty() && len(nd.children) == 0 {
			path[i-1].removeChild(attrs[i-1])
		}
	}
	return true
}

// Contains reports whether (lhs → rhs) is a cover member.
func (c *Cover) Contains(lhs attrset.Set, rhs int) bool {
	n := c.root
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		n = n.child(a)
		if n == nil {
			return false
		}
	}
	return n.fds.Contains(rhs)
}

// ContainsGeneralization reports whether the cover holds a member
// (lhs' → rhs) with lhs' ⊆ lhs.
func (c *Cover) ContainsGeneralization(lhs attrset.Set, rhs int) bool {
	return containsGen(c.root, lhs, rhs, -1)
}

func containsGen(n *node, lhs attrset.Set, rhs int, from int) bool {
	if n.fds.Contains(rhs) {
		return true
	}
	for i, a := range n.attrs {
		if a <= from || !lhs.Contains(a) {
			continue
		}
		if ch := n.children[i]; ch.subtree.Contains(rhs) {
			if containsGen(ch, lhs, rhs, a) {
				return true
			}
		}
	}
	return false
}

// ContainsSpecialization reports whether the cover holds a member
// (lhs' → rhs) with lhs' ⊇ lhs.
func (c *Cover) ContainsSpecialization(lhs attrset.Set, rhs int) bool {
	return containsSpec(c.root, lhs, rhs, lhs.First())
}

// containsSpec searches for a path that includes every lhs attribute from
// `need` upward. Children with smaller attributes are optional detours;
// a child equal to `need` consumes it. Paths ascend, so a child greater
// than `need` can never pick it up later.
func containsSpec(n *node, lhs attrset.Set, rhs int, need int) bool {
	if !n.subtree.Contains(rhs) {
		return false
	}
	if need < 0 {
		return true // all lhs attrs consumed; some descendant-or-self has rhs
	}
	for i, a := range n.attrs {
		if a > need {
			return false // attrs ascend; need can no longer be covered
		}
		ch := n.children[i]
		if a == need {
			if containsSpec(ch, lhs, rhs, lhs.Next(need)) {
				return true
			}
			return false
		}
		if containsSpec(ch, lhs, rhs, need) {
			return true
		}
	}
	return false
}

// Generalizations returns the Lhs of every member (lhs' → rhs) with
// lhs' ⊆ lhs.
func (c *Cover) Generalizations(lhs attrset.Set, rhs int) []attrset.Set {
	var out []attrset.Set
	collectGen(c.root, lhs, rhs, -1, attrset.Set{}, &out)
	return out
}

func collectGen(n *node, lhs attrset.Set, rhs int, from int, path attrset.Set, out *[]attrset.Set) {
	if n.fds.Contains(rhs) {
		*out = append(*out, path)
	}
	for i, a := range n.attrs {
		if a <= from || !lhs.Contains(a) {
			continue
		}
		if ch := n.children[i]; ch.subtree.Contains(rhs) {
			collectGen(ch, lhs, rhs, a, path.With(a), out)
		}
	}
}

// Specializations returns the Lhs of every member (lhs' → rhs) with
// lhs' ⊇ lhs.
func (c *Cover) Specializations(lhs attrset.Set, rhs int) []attrset.Set {
	var out []attrset.Set
	collectSpec(c.root, lhs, rhs, lhs.First(), attrset.Set{}, &out)
	return out
}

func collectSpec(n *node, lhs attrset.Set, rhs int, need int, path attrset.Set, out *[]attrset.Set) {
	if !n.subtree.Contains(rhs) {
		return
	}
	if need < 0 && n.fds.Contains(rhs) {
		*out = append(*out, path)
	}
	for i, a := range n.attrs {
		ch := n.children[i]
		switch {
		case need >= 0 && a > need:
			return // attrs ascend; need can no longer be covered
		case a == need:
			collectSpec(ch, lhs, rhs, lhs.Next(need), path.With(a), out)
		default:
			collectSpec(ch, lhs, rhs, need, path.With(a), out)
		}
	}
}

// RemoveGeneralizations removes every member (lhs' → rhs) with lhs' ⊆ lhs
// and returns the removed Lhs sets.
func (c *Cover) RemoveGeneralizations(lhs attrset.Set, rhs int) []attrset.Set {
	gens := c.Generalizations(lhs, rhs)
	for _, g := range gens {
		c.Remove(g, rhs)
	}
	return gens
}

// RemoveSpecializations removes every member (lhs' → rhs) with lhs' ⊇ lhs
// and returns the removed Lhs sets.
func (c *Cover) RemoveSpecializations(lhs attrset.Set, rhs int) []attrset.Set {
	specs := c.Specializations(lhs, rhs)
	for _, s := range specs {
		c.Remove(s, rhs)
	}
	return specs
}

// Level returns all members whose Lhs cardinality equals level, in
// deterministic (sorted) order.
func (c *Cover) Level(level int) []fd.FD {
	if level < 0 || level > c.numAttrs || c.levels[level] == 0 {
		return nil
	}
	return c.AppendLevel(make([]fd.FD, 0, c.levels[level]), level)
}

// AppendLevel appends all members whose Lhs cardinality equals level to
// dst, in deterministic (sorted) order, and returns the extended slice.
// It is Level with a caller-provided buffer, so per-level sweeps that run
// every batch (internal/core) can reuse one allocation.
func (c *Cover) AppendLevel(dst []fd.FD, level int) []fd.FD {
	if level < 0 || level > c.numAttrs || c.levels[level] == 0 {
		return dst
	}
	base := len(dst)
	collectLevel(c.root, level, attrset.Set{}, &dst)
	fd.Sort(dst[base:])
	return dst
}

func collectLevel(n *node, remaining int, path attrset.Set, out *[]fd.FD) {
	if remaining == 0 {
		n.fds.ForEach(func(rhs int) bool {
			*out = append(*out, fd.FD{Lhs: path, Rhs: rhs})
			return true
		})
		return
	}
	for i, a := range n.attrs {
		collectLevel(n.children[i], remaining-1, path.With(a), out)
	}
}

// AppendRhs appends every cover member with the given right-hand side to
// dst, in deterministic (sorted) order, and returns the extended slice.
// Subtree annotations prune branches that hold no member for rhs, so the
// cost is proportional to the part of the tree mentioning rhs — this is
// the per-RHS extraction snapshot builders use for copy-on-write sharing
// (internal/results): only the right-hand sides named in a batch's FD diff
// are re-collected, all others keep the previous snapshot's slice.
func (c *Cover) AppendRhs(dst []fd.FD, rhs int) []fd.FD {
	if rhs < 0 || rhs >= c.numAttrs {
		return dst
	}
	base := len(dst)
	collectRhs(c.root, rhs, attrset.Set{}, &dst)
	fd.Sort(dst[base:])
	return dst
}

func collectRhs(n *node, rhs int, path attrset.Set, out *[]fd.FD) {
	if !n.subtree.Contains(rhs) {
		return
	}
	if n.fds.Contains(rhs) {
		*out = append(*out, fd.FD{Lhs: path, Rhs: rhs})
	}
	for i, a := range n.attrs {
		collectRhs(n.children[i], rhs, path.With(a), out)
	}
}

// All returns every cover member in deterministic (sorted) order.
func (c *Cover) All() []fd.FD {
	out := make([]fd.FD, 0, c.size)
	collectAll(c.root, attrset.Set{}, &out)
	fd.Sort(out)
	return out
}

func collectAll(n *node, path attrset.Set, out *[]fd.FD) {
	n.fds.ForEach(func(rhs int) bool {
		*out = append(*out, fd.FD{Lhs: path, Rhs: rhs})
		return true
	})
	for i, a := range n.attrs {
		collectAll(n.children[i], path.With(a), out)
	}
}

// SetViolation attaches a violating record pair to the member (lhs → rhs).
// It reports false when the member is not present.
func (c *Cover) SetViolation(lhs attrset.Set, rhs int, v Violation) bool {
	c.note(lhs, rhs)
	n := c.root
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		n = n.child(a)
		if n == nil {
			return false
		}
	}
	if !n.fds.Contains(rhs) {
		return false
	}
	n.setViolation(rhs, v)
	return true
}

// Violation returns the annotated violating pair of (lhs → rhs), if any.
func (c *Cover) Violation(lhs attrset.Set, rhs int) (Violation, bool) {
	n := c.root
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		n = n.child(a)
		if n == nil {
			return Violation{}, false
		}
	}
	if !n.fds.Contains(rhs) {
		return Violation{}, false
	}
	return n.violation(rhs)
}

// ClearViolation drops the annotation of (lhs → rhs), if present.
func (c *Cover) ClearViolation(lhs attrset.Set, rhs int) {
	c.note(lhs, rhs)
	n := c.root
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		n = n.child(a)
		if n == nil {
			return
		}
	}
	delete(n.viol, rhs)
}

// CheckMinimal verifies that no member generalizes another member with the
// same Rhs — the minimality (positive cover) / maximality-dual (negative
// cover seen bottom-up) invariant. Intended for tests.
func (c *Cover) CheckMinimal() error {
	for _, m := range c.All() {
		v, hadViol := c.Violation(m.Lhs, m.Rhs)
		c.Remove(m.Lhs, m.Rhs)
		bad := c.ContainsGeneralization(m.Lhs, m.Rhs)
		c.Add(m.Lhs, m.Rhs)
		if hadViol {
			c.SetViolation(m.Lhs, m.Rhs, v)
		}
		if bad {
			return fmt.Errorf("lattice: %v has a generalization in the cover", m)
		}
	}
	return nil
}

// String renders the cover content for debugging.
func (c *Cover) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cover(%d members)", c.size)
	for _, m := range c.All() {
		fmt.Fprintf(&b, "\n  %v", m)
	}
	return b.String()
}

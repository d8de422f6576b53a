package lattice

import (
	"sort"

	"dynfd/internal/attrset"
	"dynfd/internal/fd"
)

// Entry is the state of one cover slot (Lhs → Rhs): whether it is a
// member and, for members, the violating pair annotated on it.
type Entry struct {
	Present    bool
	HasWitness bool
	Witness    Violation
}

// Change is the net effect a run of mutations had on one cover slot:
// whether it was a member before the first mutation touched it, and its
// state now. A slot that was touched but ended where it started — same
// membership, same witness — is not a change.
type Change struct {
	FD  fd.FD
	Was bool
	Now Entry
}

// journal remembers, for every slot a mutation touched since the last
// reset, the slot's state before that first touch. Keys are in the
// cover's own storage space (complemented for a Flipped inner cover).
type journal struct {
	prior map[fd.FD]Entry
}

// StartJournal makes the cover record every slot that Add, Remove, the
// Remove* sweeps, SetViolation and ClearViolation touch from now on, so
// AppendChanges can report a run of mutations as its net per-slot effect
// without diffing whole covers. Starting an already journaled cover
// resets it.
func (c *Cover) StartJournal() {
	if c.journal == nil {
		c.journal = &journal{prior: make(map[fd.FD]Entry)}
	}
	clear(c.journal.prior)
}

// ResetJournal forgets every recorded slot; the next run of mutations is
// reported relative to the current state. No-op on an unjournaled cover.
func (c *Cover) ResetJournal() {
	if c.journal != nil {
		clear(c.journal.prior)
	}
}

// note records the slot's state before its first touch since the last
// reset. Called by every mutator before it changes anything.
func (c *Cover) note(lhs attrset.Set, rhs int) {
	if c.journal == nil {
		return
	}
	key := fd.FD{Lhs: lhs, Rhs: rhs}
	if _, ok := c.journal.prior[key]; ok {
		return
	}
	c.journal.prior[key] = c.entry(lhs, rhs)
}

// entry returns the current state of the slot (lhs → rhs).
func (c *Cover) entry(lhs attrset.Set, rhs int) Entry {
	n := c.root
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		n = n.child(a)
		if n == nil {
			return Entry{}
		}
	}
	if !n.fds.Contains(rhs) {
		return Entry{}
	}
	v, ok := n.violation(rhs)
	return Entry{Present: true, HasWitness: ok, Witness: v}
}

// AppendChanges appends the net change of every slot touched since the
// last StartJournal/ResetJournal to dst, in fd.Less order of the slots,
// and returns the extended slice. Slots that ended in their starting
// state are left out. Requires a journaled cover.
func (c *Cover) AppendChanges(dst []Change) []Change {
	base := len(dst)
	for key, before := range c.journal.prior {
		if now := c.entry(key.Lhs, key.Rhs); now != before {
			dst = append(dst, Change{FD: key, Was: before.Present, Now: now})
		}
	}
	sortChanges(dst[base:])
	return dst
}

func sortChanges(cs []Change) {
	sort.Slice(cs, func(i, j int) bool { return fd.Less(cs[i].FD, cs[j].FD) })
}

// StartJournal makes the cover record every slot its mutators touch (see
// Cover.StartJournal).
func (f *Flipped) StartJournal() { f.inner.StartJournal() }

// ResetJournal forgets every recorded slot.
func (f *Flipped) ResetJournal() { f.inner.ResetJournal() }

// AppendChanges appends the net change of every touched slot, keyed by
// the real (uncomplemented) Lhs, in fd.Less order.
func (f *Flipped) AppendChanges(dst []Change) []Change {
	base := len(dst)
	dst = f.inner.AppendChanges(dst)
	for i := base; i < len(dst); i++ {
		dst[i].FD.Lhs = f.comp(dst[i].FD.Lhs)
	}
	sortChanges(dst[base:])
	return dst
}

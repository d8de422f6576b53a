// Package results implements the immutable result snapshots behind DynFD's
// lock-free read path (DESIGN.md §14). After every committed batch the
// engine publishes a Snapshot — the discovered minimal FDs, maximal
// non-FDs, and a frozen view of the record arena and cluster directories —
// through an atomic pointer. Readers Load() the pointer and
// answer every query (covers, key checks, INDs, violations) from the
// snapshot alone, never touching the engine or its mutation lock.
//
// Key and violation queries run validate's Pli kernels over the frozen
// view (validate.FrozenUnique, validate.FrozenViolations): the pivot
// attribute's clusters are regrouped from the frozen records, single-record
// clusters are dropped, and only the members of the rest are checked — the
// same kernels, and the same answers, as validation on the live store.
//
// Snapshots are built copy-on-write from their predecessor: per-RHS cover
// slices are re-collected only for the right-hand sides named in the
// batch's FD diff, and the frozen view shares arena page slabs, liveness
// bitmaps and cluster-directory pages with the live store (pli.Frozen), so
// no distinct value is copied at build time: the IND listing reads each
// attribute's value set from the frozen directory on first use. A batch
// that changes nothing shares everything.
package results

import (
	"sync"

	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
	"dynfd/internal/validate"
)

// UnaryIND is a unary inclusion dependency between two attributes: every
// distinct value of Lhs also appears in Rhs.
type UnaryIND struct {
	Lhs, Rhs int
}

// ViolationGroup is a set of records that agree on a candidate's Lhs but
// disagree on its Rhs. IDs are ascending; RhsValues counts the distinct Rhs
// values in the group.
type ViolationGroup = validate.ViolationGroup

// Snapshot is one published, immutable result state. All methods are safe
// for unlimited concurrent callers; slices returned by accessor methods
// alias the snapshot and must not be modified.
type Snapshot struct {
	seq      uint64
	columns  []string
	numAttrs int
	numRecs  int

	// origin identifies the store this snapshot froze; Build only applies
	// copy-on-write sharing against a predecessor from the same store.
	origin *pli.Store
	frozen *pli.Frozen

	fds    []fd.FD   // all minimal FDs, fd.Sort order
	byRhs  [][]fd.FD // per-RHS slices of fds (fd.Sort is Rhs-major)
	nonFDs []fd.FD   // all maximal non-FDs, fd.Sort order

	// Memoized query caches, per snapshot: repeated HTTP queries for the
	// same column set or the IND listing hit the memo instead of
	// recomputing. keyMemo is allocated by the first key query. mu only
	// guards the memos — never held during publication or by the engine.
	mu      sync.Mutex
	keyMemo map[attrset.Set]bool
	inds    []UnaryIND
	indsSet bool
}

// Build constructs the snapshot for one committed batch. prev is the
// previous snapshot (nil for the first), touchedRhs the set of right-hand
// sides appearing in the batch's FD diff: those covers are re-collected
// from the live lattice, all others share prev's slices. nonFDs is called
// only when the cover changed (FD and non-FD covers are dual: one changes
// iff the other does). Build must run with read access to the store — the
// engine calls it right after a batch commits, before any further
// mutation.
func Build(prev *Snapshot, seq uint64, columns []string, store *pli.Store,
	cover *lattice.Cover, nonFDs func() []fd.FD, touchedRhs attrset.Set) *Snapshot {

	numAttrs := store.NumAttrs()
	s := &Snapshot{
		seq:      seq,
		columns:  columns,
		numAttrs: numAttrs,
		origin:   store,
		frozen:   store.Freeze(),
	}
	s.numRecs = s.frozen.NumRecords()

	cow := prev != nil && prev.origin == store
	switch {
	case cow && touchedRhs.IsEmpty():
		// No FD changed: share the whole cover (and, by duality, the
		// non-FD cover) with the predecessor.
		s.fds, s.byRhs, s.nonFDs = prev.fds, prev.byRhs, prev.nonFDs
	default:
		s.byRhs = make([][]fd.FD, numAttrs)
		total := 0
		for rhs := 0; rhs < numAttrs; rhs++ {
			if cow && !touchedRhs.Contains(rhs) {
				s.byRhs[rhs] = prev.byRhs[rhs]
			} else {
				s.byRhs[rhs] = cover.AppendRhs(nil, rhs)
			}
			total += len(s.byRhs[rhs])
		}
		s.fds = make([]fd.FD, 0, total)
		for rhs := 0; rhs < numAttrs; rhs++ {
			s.fds = append(s.fds, s.byRhs[rhs]...)
		}
		s.nonFDs = nonFDs()
	}
	return s
}

// Seq returns the batch sequence number this snapshot reflects.
func (s *Snapshot) Seq() uint64 { return s.seq }

// NumRecords returns the tuple count at the snapshot's sequence.
func (s *Snapshot) NumRecords() int { return s.numRecs }

// NumAttrs returns the schema width.
func (s *Snapshot) NumAttrs() int { return s.numAttrs }

// Columns returns the schema's column names. Callers must not modify the
// returned slice.
func (s *Snapshot) Columns() []string { return s.columns }

// FDs returns all minimal, non-trivial FDs in deterministic (fd.Sort)
// order — identical to Engine.FDs at the same sequence.
func (s *Snapshot) FDs() []fd.FD { return s.fds }

// NonFDs returns all maximal non-FDs in deterministic order.
func (s *Snapshot) NonFDs() []fd.FD { return s.nonFDs }

// CoverOf returns the minimal FDs with the given right-hand side, in
// deterministic order.
func (s *Snapshot) CoverOf(rhs int) []fd.FD {
	if rhs < 0 || rhs >= s.numAttrs {
		return nil
	}
	return s.byRhs[rhs]
}

// Holds reports whether lhs → rhs held at the snapshot's sequence,
// mirroring Engine.Holds: trivial candidates always hold, any other holds
// iff some minimal FD generalizes it.
func (s *Snapshot) Holds(lhs attrset.Set, rhs int) bool {
	if lhs.Contains(rhs) {
		return true
	}
	if rhs < 0 || rhs >= s.numAttrs {
		return false
	}
	for _, m := range s.byRhs[rhs] {
		if m.Lhs.IsSubsetOf(lhs) {
			return true
		}
	}
	return false
}

// Unique reports whether the records were pairwise distinct on the given
// column set at the snapshot's sequence — the key check. Results are
// memoized per column set. The semantics match validate.Unique: relations
// with at most one record are trivially unique, the empty column set is
// never unique beyond that.
func (s *Snapshot) Unique(cols attrset.Set) bool {
	s.mu.Lock()
	u, ok := s.keyMemo[cols]
	s.mu.Unlock()
	if ok {
		return u
	}
	// Cover fast path: if cols → a fails for some attribute a outside the
	// set, a witness pair agrees on cols — the projection cannot be
	// unique. (The converse needs the Pli walk: a superkey still admits
	// exact duplicate tuples.)
	u = true
	for a := 0; a < s.numAttrs && u; a++ {
		u = cols.Contains(a) || s.Holds(cols, a)
	}
	u = u && validate.FrozenUnique(s.frozen, cols)
	s.mu.Lock()
	if s.keyMemo == nil {
		s.keyMemo = make(map[attrset.Set]bool)
	}
	s.keyMemo[cols] = u
	s.mu.Unlock()
	return u
}

// INDs returns all unary inclusion dependencies between distinct
// attributes at the snapshot's sequence, in (Lhs, Rhs) column order —
// identical to a value-set scan over the live relation. The listing is
// computed once per snapshot, from the value sets the frozen records name
// in the frozen cluster directories, and memoized.
func (s *Snapshot) INDs() []UnaryIND {
	s.mu.Lock()
	if s.indsSet {
		out := s.inds
		s.mu.Unlock()
		return out
	}
	s.mu.Unlock()

	values := make([][]string, s.numAttrs)
	var g pli.GroupBuf
	for a := range values {
		s.frozen.ForEachValue(a, &g, func(v string) bool {
			values[a] = append(values[a], v)
			return true
		})
	}
	members := make([]map[string]struct{}, s.numAttrs)
	var out []UnaryIND
	for i := 0; i < s.numAttrs; i++ {
		for j := 0; j < s.numAttrs; j++ {
			if i == j || len(values[i]) > len(values[j]) {
				continue
			}
			if members[j] == nil {
				members[j] = make(map[string]struct{}, len(values[j]))
				for _, v := range values[j] {
					members[j][v] = struct{}{}
				}
			}
			included := true
			for _, v := range values[i] {
				if _, ok := members[j][v]; !ok {
					included = false
					break
				}
			}
			if included {
				out = append(out, UnaryIND{Lhs: i, Rhs: j})
			}
		}
	}

	s.mu.Lock()
	if !s.indsSet {
		s.inds, s.indsSet = out, true
	}
	out = s.inds
	s.mu.Unlock()
	return out
}

// Violations explains why lhs → rhs did not hold at the snapshot's
// sequence: up to max groups of records that agree on lhs but differ on
// rhs (max <= 0 returns all), plus the g3 error — the minimum fraction of
// records whose removal would make the FD hold. It runs
// validate.FrozenViolations, so the groups, their order and g3 are
// identical to validate.Violations on the live store at the same sequence:
// group IDs ascending, groups ordered by first member id.
func (s *Snapshot) Violations(lhs attrset.Set, rhs int, max int) ([]ViolationGroup, float64) {
	if rhs < 0 || rhs >= s.numAttrs {
		return nil, 0
	}
	return validate.FrozenViolations(s.frozen, lhs, rhs, max)
}

package dynfd

import (
	"fmt"

	"dynfd/internal/attrset"
	"dynfd/internal/results"
)

// ResultSnapshot is an immutable view of a monitor's discovery results at
// one point in time: the minimal FDs, the maximal non-FDs, and the record
// population they were derived from. All methods are safe for concurrent
// use, answer from the captured state without touching the live engine,
// and every answer is mutually consistent — the snapshot never reflects a
// half-applied batch (DESIGN.md §14).
//
// Snapshots are built copy-on-write: holding one is cheap even while the
// monitor keeps applying batches, and dropping the reference releases it.
type ResultSnapshot struct {
	columns  []string
	colIndex map[string]int
	s        *results.Snapshot
}

// Snapshot captures the monitor's current results as an immutable
// snapshot. Consecutive calls without an intervening Apply return the
// same snapshot. Like every other Monitor method it must not run
// concurrently with Apply; the returned snapshot itself is free of that
// restriction. For lock-free serving against a live writer use
// DurableMonitor.Snapshot, which returns the last published snapshot
// without coordinating with the write path at all.
func (m *Monitor) Snapshot() *ResultSnapshot {
	if m.snap == nil || m.snapDirty {
		m.snapSeq++
		m.snap = m.engine.BuildResults(m.snap, m.snapSeq, m.columns, m.dirtyAdded, m.dirtyRemoved)
		m.snapDirty = false
		m.dirtyAdded, m.dirtyRemoved = nil, nil
	}
	return &ResultSnapshot{columns: m.columns, colIndex: m.colIndex, s: m.snap}
}

// Snapshot returns the monitor's last published result snapshot: the
// state as of the most recent durably acknowledged batch (or checkpoint).
// It is safe to call from any goroutine at any time — the read path is a
// single atomic load and never waits for an in-flight Apply — so it is
// the intended serving surface for concurrent readers. The snapshot's
// Seq lags DurableMonitor.Seq by exactly the batches that are staged but
// not yet durable.
func (m *DurableMonitor) Snapshot() *ResultSnapshot {
	return &ResultSnapshot{columns: m.columns, colIndex: m.colIndex, s: m.eng.Snapshot()}
}

// Seq returns the sequence number of the last batch the snapshot
// reflects. For durable monitors this is the WAL sequence; for in-memory
// monitors it is a build counter. It increases monotonically across the
// snapshots of one monitor.
func (s *ResultSnapshot) Seq() uint64 { return s.s.Seq() }

// NumRecords returns the live tuple count at snapshot time.
func (s *ResultSnapshot) NumRecords() int { return s.s.NumRecords() }

// Columns returns the schema of the snapshotted relation.
func (s *ResultSnapshot) Columns() []string { return append([]string(nil), s.columns...) }

// FDs returns the snapshot's minimal, non-trivial FDs in deterministic
// order.
func (s *ResultSnapshot) FDs() []FD { return toPublic(s.s.FDs()) }

// NonFDs returns the snapshot's maximal non-FDs.
func (s *ResultSnapshot) NonFDs() []FD { return toPublic(s.s.NonFDs()) }

// CoverOf returns the minimal FDs determining the given column, in
// deterministic order.
func (s *ResultSnapshot) CoverOf(rhsColumn string) ([]FD, error) {
	rhs, err := s.attr(rhsColumn)
	if err != nil {
		return nil, err
	}
	return toPublic(s.s.CoverOf(rhs)), nil
}

// Holds reports whether the FD lhsColumns → rhsColumn held at snapshot
// time, i.e. whether it is implied by some snapshotted minimal FD.
func (s *ResultSnapshot) Holds(lhsColumns []string, rhsColumn string) (bool, error) {
	rhs, err := s.attr(rhsColumn)
	if err != nil {
		return false, err
	}
	lhs, err := s.attrSet(lhsColumns)
	if err != nil {
		return false, err
	}
	return s.s.Holds(lhs, rhs), nil
}

// Unique reports whether the given columns formed a unique column
// combination at snapshot time — no two live records agree on all of
// them. Unlike Holds this is exact even for fully duplicate tuples: when
// the FD cover cannot refute uniqueness, the check runs on the
// snapshotted Plis — no walk at all when one of the columns had a
// distinct value per record, otherwise over the multi-record clusters of
// the column with the most values. Results are memoized per snapshot.
func (s *ResultSnapshot) Unique(columns []string) (bool, error) {
	if len(columns) == 0 {
		return false, fmt.Errorf("dynfd: at least one column required")
	}
	cols, err := s.attrSet(columns)
	if err != nil {
		return false, err
	}
	return s.s.Unique(cols), nil
}

// INDs returns the snapshot's unary inclusion dependencies over column
// indexes, in deterministic column order, omitting trivial
// self-inclusions. The result is computed on first call and memoized in
// the snapshot, so repeated queries against one snapshot are free.
func (s *ResultSnapshot) INDs() []IND {
	u := s.s.INDs()
	out := make([]IND, len(u))
	for i, p := range u {
		out[i] = IND{Lhs: p.Lhs, Rhs: p.Rhs}
	}
	return out
}

// Violations explains why an FD did not hold at snapshot time: up to max
// groups of records that agree on the lhs columns but differ on the rhs
// column (max <= 0 returns all groups), plus the FD's g3 error. See
// Monitor.Violations for the semantics.
func (s *ResultSnapshot) Violations(lhsColumns []string, rhsColumn string, max int) ([]ViolationGroup, float64, error) {
	rhs, err := s.attr(rhsColumn)
	if err != nil {
		return nil, 0, err
	}
	lhs, err := s.attrSet(lhsColumns)
	if err != nil {
		return nil, 0, err
	}
	groups, g3 := s.s.Violations(lhs, rhs, max)
	out := make([]ViolationGroup, len(groups))
	for i, g := range groups {
		out[i] = ViolationGroup{IDs: g.IDs, RhsValues: g.RhsValues}
	}
	return out, g3, nil
}

// ForEachFD calls fn for every FD that FDs returns, in the same order,
// without allocating per FD: f.Lhs is reused from one call to the next,
// so fn must copy it to keep it.
func (s *ResultSnapshot) ForEachFD(fn func(f FD)) {
	lhs := make([]int, 0, len(s.columns))
	for _, f := range s.s.FDs() {
		lhs = lhs[:0]
		for a := f.Lhs.First(); a >= 0; a = f.Lhs.Next(a) {
			lhs = append(lhs, a)
		}
		fn(FD{Lhs: lhs, Rhs: f.Rhs})
	}
}

// FormatFD renders an FD with the snapshot's column names.
func (s *ResultSnapshot) FormatFD(f FD) string { return formatFD(f, s.columns) }

// AppendFD appends FormatFD(f) to dst and returns the extended slice.
func (s *ResultSnapshot) AppendFD(dst []byte, f FD) []byte {
	return fromPublic(f).AppendNames(dst, s.columns)
}

func (s *ResultSnapshot) attr(column string) (int, error) {
	i, ok := s.colIndex[column]
	if !ok {
		return 0, fmt.Errorf("dynfd: unknown column %q", column)
	}
	return i, nil
}

func (s *ResultSnapshot) attrSet(columns []string) (attrset.Set, error) {
	var set attrset.Set
	for _, c := range columns {
		i, err := s.attr(c)
		if err != nil {
			return attrset.Set{}, err
		}
		set = set.With(i)
	}
	return set, nil
}

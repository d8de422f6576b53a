package core

import (
	"fmt"

	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/induct"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
)

// Snapshot is the complete serializable state of an engine: the relation's
// tuples with their surrogate ids, both covers (with the negative cover's
// violation witnesses), and the configuration. Restoring a snapshot avoids
// the static re-profiling a cold start would need.
type Snapshot struct {
	NumAttrs int              `json:"num_attrs"`
	NextID   int64            `json:"next_id"`
	Records  []RecordSnapshot `json:"records"`
	FDs      []FDSnapshot     `json:"fds"`
	NonFDs   []NonFDSnapshot  `json:"non_fds"`
	Config   Config           `json:"config"`

	// coded, when set (DecodeState), holds the relation in its
	// dictionary-coded form instead of Records.
	coded *pli.Coded
}

// RecordSnapshot is one tuple with its surrogate id.
type RecordSnapshot struct {
	ID     int64    `json:"id"`
	Values []string `json:"values"`
}

// FDSnapshot is one positive-cover member.
type FDSnapshot struct {
	Lhs []int `json:"lhs"`
	Rhs int   `json:"rhs"`
}

// NonFDSnapshot is one negative-cover member with its optional violating
// record pair.
type NonFDSnapshot struct {
	Lhs     []int    `json:"lhs"`
	Rhs     int      `json:"rhs"`
	Witness [2]int64 `json:"witness,omitempty"`
	HasPair bool     `json:"has_pair,omitempty"`
}

// Snapshot captures the engine's current state.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		NumAttrs: e.numAttrs,
		NextID:   e.store.NextID(),
		Config:   e.cfg,
	}
	// ForEachRecord visits ids in ascending order, the order Restore needs.
	e.store.ForEachRecord(func(id int64, _ pli.Record) bool {
		values, _ := e.store.Values(id)
		s.Records = append(s.Records, RecordSnapshot{ID: id, Values: values})
		return true
	})
	for _, f := range e.fds.All() {
		s.FDs = append(s.FDs, FDSnapshot{Lhs: f.Lhs.Slice(), Rhs: f.Rhs})
	}
	for _, f := range e.nonFds.All() {
		nf := NonFDSnapshot{Lhs: f.Lhs.Slice(), Rhs: f.Rhs}
		if v, ok := e.nonFds.Violation(f.Lhs, f.Rhs); ok {
			nf.Witness = [2]int64{v.A, v.B}
			nf.HasPair = true
		}
		s.NonFDs = append(s.NonFDs, nf)
	}
	return s
}

// Restore rebuilds an engine from a snapshot. The relation goes through
// the Pli store's bulk loader (pli.Store.Load, DESIGN.md §10), attributes
// fanned out across GOMAXPROCS: a decoded state loads straight from its
// codes and dictionaries, a JSON snapshot's tuples are coded on the way
// in. A Workers value in the saved config is ignored. The loader refuses
// ids out of order and a dictionary that repeats a value; the covers must
// be duals.
func Restore(s *Snapshot) (*Engine, error) {
	if s.NumAttrs <= 0 || s.NumAttrs > attrset.MaxAttrs {
		return nil, fmt.Errorf("core: snapshot has invalid attribute count %d", s.NumAttrs)
	}
	e := &Engine{
		cfg:      s.Config.normalize(),
		numAttrs: s.NumAttrs,
		store:    pli.NewStore(s.NumAttrs),
		fds:      lattice.New(s.NumAttrs),
		nonFds:   lattice.NewFlipped(s.NumAttrs),
	}
	var err error
	if s.coded != nil {
		err = e.store.Load(s.coded)
	} else {
		ids := make([]int64, len(s.Records))
		rows := make([][]string, len(s.Records))
		for i, rec := range s.Records {
			ids[i], rows[i] = rec.ID, rec.Values
		}
		err = e.store.LoadRows(ids, rows)
	}
	if err != nil {
		return nil, fmt.Errorf("core: snapshot records: %w", err)
	}
	if err := e.store.SetNextID(s.NextID); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	for _, f := range s.FDs {
		lhs, err := setOf(f.Lhs, s.NumAttrs)
		if err != nil {
			return nil, err
		}
		e.fds.Add(lhs, f.Rhs)
	}
	for _, f := range s.NonFDs {
		lhs, err := setOf(f.Lhs, s.NumAttrs)
		if err != nil {
			return nil, err
		}
		e.nonFds.Add(lhs, f.Rhs)
		if f.HasPair {
			e.nonFds.SetViolation(lhs, f.Rhs, lattice.Violation{A: f.Witness[0], B: f.Witness[1]})
		}
	}
	e.initExtras()

	// Sanity: the two covers of a valid snapshot are duals; a corrupted or
	// hand-edited snapshot fails here instead of yielding silent nonsense.
	wantNeg := induct.Invert(e.fds, e.numAttrs).All()
	gotNeg := e.nonFds.All()
	if !fd.Equal(gotNeg, wantNeg) {
		return nil, fmt.Errorf("core: snapshot covers are not duals; snapshot corrupted")
	}
	return e, nil
}

func setOf(attrs []int, numAttrs int) (attrset.Set, error) {
	var s attrset.Set
	for _, a := range attrs {
		if a < 0 || a >= numAttrs {
			return s, fmt.Errorf("core: snapshot attribute %d out of range", a)
		}
		s = s.With(a)
	}
	return s, nil
}

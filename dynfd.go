// Package dynfd discovers and maintains functional dependencies (FDs) in
// dynamic datasets. It implements DynFD (Schirmer et al., EDBT 2019), the
// first algorithm that keeps the complete and exact set of minimal,
// non-trivial FDs of a relation up to date under a stream of inserts,
// updates, and deletes — typically more than an order of magnitude faster
// than re-running a static discovery algorithm after every batch.
//
// # Quick start
//
//	mon, _ := dynfd.NewMonitor([]string{"zip", "city"})
//	_ = mon.Bootstrap([][]string{
//		{"14482", "Potsdam"},
//		{"10115", "Berlin"},
//	})
//	diff, _ := mon.Apply(dynfd.Insert("14482", "Potsdam"))
//	for _, f := range mon.FDs() {
//		fmt.Println(mon.FormatFD(f)) // e.g. "[zip] -> city"
//	}
//	_ = diff
//
// The package also exposes the static discovery algorithms HyFD, TANE, and
// FDEP through Discover, for one-shot profiling of a snapshot.
package dynfd

import (
	"fmt"
	"time"

	"dynfd/internal/core"
	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/results"
	"dynfd/internal/stream"
)

// FD is a functional dependency Lhs → Rhs over column indexes of the
// monitored schema. An empty Lhs means the Rhs column is constant.
type FD struct {
	Lhs []int
	Rhs int
}

// String renders the FD with column indexes, e.g. "[0 2] -> 4".
func (f FD) String() string { return fmt.Sprintf("%v -> %d", f.Lhs, f.Rhs) }

// ChangeKind enumerates the change operation types of a dynamic relation.
type ChangeKind int

const (
	// KindInsert adds a new tuple.
	KindInsert ChangeKind = iota
	// KindDelete removes the tuple identified by ID.
	KindDelete
	// KindUpdate replaces the tuple identified by ID with Values.
	KindUpdate
)

// Change is one modification of the monitored relation.
type Change struct {
	Kind   ChangeKind
	ID     int64     // target record for KindDelete and KindUpdate
	Values []string  // tuple values for KindInsert and KindUpdate
	Time   time.Time // optional arrival time (informational)
}

// Insert returns an insert change for the given tuple.
func Insert(values ...string) Change { return Change{Kind: KindInsert, Values: values} }

// Delete returns a delete change for the record with the given id.
func Delete(id int64) Change { return Change{Kind: KindDelete, ID: id} }

// Update returns an update change replacing record id with the new tuple.
func Update(id int64, values ...string) Change {
	return Change{Kind: KindUpdate, ID: id, Values: values}
}

// Pruning selects DynFD's pruning strategies (paper §4–§5). All
// strategies affect performance only; results are identical under every
// combination.
type Pruning struct {
	Cluster          bool // skip unchanged Pli clusters during insert validation (§4.2)
	ViolationSearch  bool // progressive record-pair search for violations (§4.3)
	Validation       bool // skip non-FD re-validation while a witness pair lives (§5.2)
	DepthFirstSearch bool // optimistic depth-first generalization search (§5.3)
}

// AllPruning enables every strategy: the paper's default configuration.
func AllPruning() Pruning {
	return Pruning{Cluster: true, ViolationSearch: true, Validation: true, DepthFirstSearch: true}
}

// Option configures a Monitor.
type Option func(*options)

type options struct {
	pruning         Pruning
	seed            int64
	keyColumns      []string
	updatePruning   bool
	checkpointEvery int
	feed            ChangeFeed
}

// WithPruning selects the pruning strategies (default: AllPruning).
func WithPruning(p Pruning) Option { return func(o *options) { o.pruning = p } }

// WithSeed fixes the pseudo-random seed of the depth-first-search seed
// sampling, making maintenance runs reproducible (default 0).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithKeyColumns declares columns that carry a database uniqueness
// constraint. FDs whose left-hand side contains a declared key trivially
// hold and are never re-validated — the constraint-aware pruning the paper
// proposes as future work (§8). Declaring a non-unique column yields
// undefined results.
func WithKeyColumns(columns ...string) Option {
	return func(o *options) { o.keyColumns = append(o.keyColumns, columns...) }
}

// WithUpdateColumnPruning skips re-validation of dependencies whose
// columns were not touched by an update-only batch, exploiting that most
// updates alter only a few attribute values — the update-specific pruning
// the paper proposes as future work (§8).
func WithUpdateColumnPruning() Option {
	return func(o *options) { o.updatePruning = true }
}

// WithWorkers is kept so that existing callers still compile.
//
// Deprecated: ignored. A batch's Pli maintenance, a bootstrap and a
// snapshot load always fan their attributes out across GOMAXPROCS
// goroutines; candidate validation runs on the calling goroutine.
func WithWorkers(int) Option { return func(*options) {} }

// WithCheckpointEvery sets how many applied batches a DurableMonitor
// accumulates in its write-ahead log before folding them into a fresh
// checkpoint (default 64; negative disables automatic checkpoints).
// Plain in-memory Monitors ignore this option.
func WithCheckpointEvery(batches int) Option {
	return func(o *options) { o.checkpointEvery = batches }
}

// WithChangeFeed attaches a replication change feed to a DurableMonitor:
// every committed batch's encoded payload is appended to the feed, and
// the feed's durability watermark advances as batches become
// crash-durable, which is what a WAL-shipping primary streams to its
// followers (internal/repl). Plain in-memory Monitors ignore it.
func WithChangeFeed(feed ChangeFeed) Option {
	return func(o *options) { o.feed = feed }
}

// Diff reports the effects of one applied batch.
type Diff struct {
	// InsertedIDs holds the surrogate id assigned to each insert and
	// update of the batch, in batch order. Use these ids to address the
	// records in later Delete and Update changes.
	InsertedIDs []int64
	// Added and Removed are the minimal-FD changes caused by the batch.
	Added, Removed []FD
}

// Monitor maintains the minimal, non-trivial FDs of a single relation
// under batches of changes. Create one with NewMonitor, optionally seed it
// with initial tuples via Bootstrap, then feed batches through Apply.
// A Monitor is not safe for concurrent use.
type Monitor struct {
	columns   []string
	colIndex  map[string]int
	engine    *core.Engine
	booted    bool
	batchSeen bool

	// Snapshot cache (see Snapshot): the last built result snapshot, the
	// sequence it was stamped with, whether the engine changed since, and
	// the accumulated FD diff that lets the next build reuse untouched
	// lattice levels copy-on-write.
	snap         *results.Snapshot
	snapSeq      uint64
	snapDirty    bool
	dirtyAdded   []fd.FD
	dirtyRemoved []fd.FD
}

// NewMonitor returns a monitor for a relation with the given column names.
func NewMonitor(columns []string, opts ...Option) (*Monitor, error) {
	rel := dataset.New("relation", columns)
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	o := options{pruning: AllPruning()}
	for _, opt := range opts {
		opt(&o)
	}
	m := &Monitor{
		columns:  append([]string(nil), columns...),
		colIndex: make(map[string]int, len(columns)),
	}
	for i, c := range m.columns {
		m.colIndex[c] = i
	}
	cfg, err := coreConfig(o, m.colIndex)
	if err != nil {
		return nil, err
	}
	m.engine = core.NewEmpty(len(columns), cfg)
	return m, nil
}

func coreConfig(o options, colIndex map[string]int) (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.ClusterPruning = o.pruning.Cluster
	cfg.ViolationSearch = o.pruning.ViolationSearch
	cfg.ValidationPruning = o.pruning.Validation
	cfg.DepthFirstSearch = o.pruning.DepthFirstSearch
	cfg.Seed = o.seed
	cfg.UpdateColumnPruning = o.updatePruning
	for _, c := range o.keyColumns {
		i, ok := colIndex[c]
		if !ok {
			return cfg, fmt.Errorf("dynfd: unknown key column %q", c)
		}
		cfg.KeyColumns = append(cfg.KeyColumns, i)
	}
	return cfg, nil
}

// Columns returns the schema of the monitored relation.
func (m *Monitor) Columns() []string { return append([]string(nil), m.columns...) }

// Bootstrap loads initial tuples and profiles them with the static HyFD
// algorithm, whose data structures the monitor adopts (paper §2). It must
// be called before the first Apply and at most once. The loaded records
// receive the surrogate ids 0..len(rows)-1 in order.
func (m *Monitor) Bootstrap(rows [][]string) error {
	if m.booted || m.batchSeen {
		return fmt.Errorf("dynfd: Bootstrap must be the first operation on a Monitor")
	}
	rel := dataset.New("relation", m.columns)
	for _, row := range rows {
		if err := rel.Append(row); err != nil {
			return err
		}
	}
	engine, err := core.Bootstrap(rel, m.engineConfig())
	if err != nil {
		return err
	}
	m.engine = engine
	m.booted = true
	// The engine was swapped: a cached snapshot belongs to the old store
	// and cannot seed a copy-on-write build.
	m.snap, m.snapDirty = nil, false
	m.dirtyAdded, m.dirtyRemoved = nil, nil
	return nil
}

func (m *Monitor) engineConfig() core.Config {
	// The empty engine was created with the desired config; reuse it.
	return m.engine.Config()
}

// toBatch converts public changes to the internal batch representation.
func toBatch(changes []Change) (stream.Batch, error) {
	b := stream.Batch{Changes: make([]stream.Change, len(changes))}
	for i, c := range changes {
		sc := stream.Change{ID: c.ID, Values: c.Values, Time: c.Time}
		switch c.Kind {
		case KindInsert:
			sc.Kind = stream.Insert
		case KindDelete:
			sc.Kind = stream.Delete
		case KindUpdate:
			sc.Kind = stream.Update
		default:
			return stream.Batch{}, fmt.Errorf("dynfd: change %d: unknown kind %d", i, int(c.Kind))
		}
		b.Changes[i] = sc
	}
	return b, nil
}

// toDiff converts a batch result to the public diff representation.
func toDiff(res core.Result) Diff {
	return Diff{
		InsertedIDs: res.InsertedIDs,
		Added:       toPublic(res.Added),
		Removed:     toPublic(res.Removed),
	}
}

// Apply incorporates one batch of changes and returns the FD diff. The
// batch is processed atomically in DynFD's pipeline order: structural
// updates, then deletes, then inserts.
func (m *Monitor) Apply(changes ...Change) (Diff, error) {
	b, err := toBatch(changes)
	if err != nil {
		return Diff{}, err
	}
	res, err := m.engine.ApplyBatch(b)
	if err != nil {
		return Diff{}, err
	}
	m.batchSeen = true
	m.snapDirty = true
	m.dirtyAdded = append(m.dirtyAdded, res.Added...)
	m.dirtyRemoved = append(m.dirtyRemoved, res.Removed...)
	return toDiff(res), nil
}

// CheckInvariants verifies the monitor's cross-structure invariants — Pli
// consistency, cover minimality, and the duality of the positive and
// negative covers. It is exported for tests and failure-injection suites;
// regular callers never need it.
func (m *Monitor) CheckInvariants() error { return m.engine.CheckInvariants() }

// FDs returns the current minimal, non-trivial FDs in deterministic order.
func (m *Monitor) FDs() []FD { return toPublic(m.engine.FDs()) }

// NonFDs returns the current maximal non-FDs — the most specific attribute
// combinations that do not functionally determine their right-hand side.
func (m *Monitor) NonFDs() []FD { return toPublic(m.engine.NonFDs()) }

// NumRecords returns the current tuple count.
func (m *Monitor) NumRecords() int { return m.engine.NumRecords() }

// Record returns the current values of a live record.
func (m *Monitor) Record(id int64) ([]string, bool) { return m.engine.Record(id) }

// Lookup returns the ids of live records whose values equal the tuple.
func (m *Monitor) Lookup(values []string) ([]int64, error) { return m.engine.Lookup(values) }

// ForEachRecord visits every live record in unspecified order, passing its
// surrogate id and current values. Returning false from f stops the scan.
func (m *Monitor) ForEachRecord(f func(id int64, values []string) bool) {
	m.engine.ForEachRecord(f)
}

// Holds reports whether the FD lhsColumns → rhsColumn currently holds,
// i.e. whether it is implied by some maintained minimal FD. Column names
// must exist in the schema.
func (m *Monitor) Holds(lhsColumns []string, rhsColumn string) (bool, error) {
	rhs, ok := m.colIndex[rhsColumn]
	if !ok {
		return false, fmt.Errorf("dynfd: unknown column %q", rhsColumn)
	}
	var lhs []int
	for _, c := range lhsColumns {
		i, ok := m.colIndex[c]
		if !ok {
			return false, fmt.Errorf("dynfd: unknown column %q", c)
		}
		lhs = append(lhs, i)
	}
	return m.engine.Holds(lhs, rhs), nil
}

// ViolationGroup is a set of records that agree on an inspected FD's
// left-hand side but disagree on its right-hand side.
type ViolationGroup struct {
	// IDs are the group's record ids, ascending.
	IDs []int64
	// RhsValues is the number of distinct right-hand-side values.
	RhsValues int
}

// Violations explains why an FD does not hold: it returns up to max groups
// of records that agree on the lhs columns but differ on the rhs column
// (max <= 0 returns all groups), together with the FD's g3 error — the
// minimum fraction of records whose removal would make it hold (the
// classic approximate-FD measure of Huhtala et al.). A currently valid FD
// yields no groups and an error of 0.
func (m *Monitor) Violations(lhsColumns []string, rhsColumn string, max int) ([]ViolationGroup, float64, error) {
	rhs, ok := m.colIndex[rhsColumn]
	if !ok {
		return nil, 0, fmt.Errorf("dynfd: unknown column %q", rhsColumn)
	}
	var lhs []int
	for _, c := range lhsColumns {
		i, ok := m.colIndex[c]
		if !ok {
			return nil, 0, fmt.Errorf("dynfd: unknown column %q", c)
		}
		lhs = append(lhs, i)
	}
	groups, g3 := m.engine.Violations(lhs, rhs, max)
	out := make([]ViolationGroup, len(groups))
	for i, g := range groups {
		out[i] = ViolationGroup{IDs: g.IDs, RhsValues: g.RhsValues}
	}
	return out, g3, nil
}

// FormatFD renders an FD with the monitor's column names,
// e.g. "[zip] -> city".
func (m *Monitor) FormatFD(f FD) string { return formatFD(f, m.columns) }

// formatFD renders f with cols into a stack buffer, so that the returned
// string is the only allocation of a typical rendering.
func formatFD(f FD, cols []string) string {
	var buf [128]byte
	return string(fromPublic(f).AppendNames(buf[:0], cols))
}

// Stats summarizes the work performed so far.
type Stats struct {
	Batches              int
	Validations          int
	SkippedValidations   int
	Comparisons          int
	ViolationSearchRuns  int
	DepthFirstSearchRuns int

	// AgreePairs counts the record pairs compared to build the insert
	// phase's agree-mask indexes, which answer the cluster-pruned
	// validations (DESIGN.md §9). Like every work counter, it repeats
	// exactly for equal histories at every GOMAXPROCS.
	AgreePairs int

	FDsAdded   int
	FDsRemoved int

	// CoverPatches counts batches a replication follower applied by
	// patching its covers from the primary's cover delta instead of
	// running the delete and insert phases (DESIGN.md §15).
	CoverPatches int

	// Cumulative wall-clock breakdown of batch processing, following the
	// paper's Figure 1: structural updates, delete phase, insert phase.
	StructureTime   time.Duration
	DeletePhaseTime time.Duration
	InsertPhaseTime time.Duration
}

// Stats returns the accumulated maintenance counters.
func (m *Monitor) Stats() Stats {
	s := m.engine.Stats()
	return Stats{
		Batches:              s.Batches,
		Validations:          s.Validations,
		SkippedValidations:   s.SkippedValidations,
		Comparisons:          s.Comparisons,
		ViolationSearchRuns:  s.ViolationSearchRuns,
		DepthFirstSearchRuns: s.DepthFirstSearchRuns,
		AgreePairs:           s.AgreePairs,

		FDsAdded:        s.FDsAdded,
		FDsRemoved:      s.FDsRemoved,
		CoverPatches:    s.CoverPatches,
		StructureTime:   s.StructureTime,
		DeletePhaseTime: s.DeletePhaseTime,
		InsertPhaseTime: s.InsertPhaseTime,
	}
}

func toPublic(in []fd.FD) []FD {
	if len(in) == 0 {
		return nil
	}
	out := make([]FD, len(in))
	for i, f := range in {
		out[i] = FD{Lhs: f.Lhs.Slice(), Rhs: f.Rhs}
	}
	return out
}

func fromPublic(f FD) fd.FD {
	out := fd.FD{Rhs: f.Rhs}
	for _, a := range f.Lhs {
		out.Lhs = out.Lhs.With(a)
	}
	return out
}

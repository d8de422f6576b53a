package core

import (
	"fmt"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/oracle"
	"dynfd/internal/stream"
)

const (
	F = 0
	L = 1
	Z = 2
	C = 3
)

func paperRelation() *dataset.Relation {
	rel := dataset.New("people", []string{"firstname", "lastname", "zip", "city"})
	for _, row := range [][]string{
		{"Max", "Jones", "14482", "Potsdam"},  // id 0 (tuple 1)
		{"Max", "Miller", "14482", "Potsdam"}, // id 1 (tuple 2)
		{"Max", "Jones", "10115", "Berlin"},   // id 2 (tuple 3)
		{"Anna", "Scott", "13591", "Berlin"},  // id 3 (tuple 4)
	} {
		if err := rel.Append(row); err != nil {
			panic(err)
		}
	}
	return rel
}

func mustBootstrap(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Bootstrap(paperRelation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBootstrapPaperExample(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	want := []fd.FD{
		{Lhs: attrset.Of(L), Rhs: F},
		{Lhs: attrset.Of(Z), Rhs: F},
		{Lhs: attrset.Of(Z), Rhs: C},
		{Lhs: attrset.Of(F, C), Rhs: Z},
		{Lhs: attrset.Of(L, C), Rhs: Z},
	}
	if got := e.FDs(); !fd.Equal(got, want) {
		t.Errorf("FDs = %v, want %v", got, want)
	}
	wantNeg := []fd.FD{
		{Lhs: attrset.Of(F, Z, C), Rhs: L},
		{Lhs: attrset.Of(F, L), Rhs: Z},
		{Lhs: attrset.Of(F, L), Rhs: C},
		{Lhs: attrset.Of(C), Rhs: F},
		{Lhs: attrset.Of(C), Rhs: Z},
	}
	if got := e.NonFDs(); !fd.Equal(got, wantNeg) {
		t.Errorf("NonFDs = %v, want %v", got, wantNeg)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPaperBatch replays the batch of Table 1 — delete tuple 3, insert
// tuples 5 and 6 — and checks the evolved FDs against Figure 4: six
// minimal FDs, f→c newly minimal, fc→z no longer an FD, z→c retained.
func TestPaperBatch(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	res, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 2}, // tuple 3
		{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
		{Kind: stream.Insert, Values: []string{"Marie", "Gray", "14469", "Potsdam"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InsertedIDs) != 2 {
		t.Fatalf("InsertedIDs = %v", res.InsertedIDs)
	}
	got := e.FDs()

	// Cross-check with the oracle on the equivalent static relation.
	rows := [][]string{
		{"Max", "Jones", "14482", "Potsdam"},
		{"Max", "Miller", "14482", "Potsdam"},
		{"Anna", "Scott", "13591", "Berlin"},
		{"Marie", "Scott", "14467", "Potsdam"},
		{"Marie", "Gray", "14469", "Potsdam"},
	}
	want := oracle.MinimalFDs(rows, 4)
	if !fd.Equal(got, want) {
		t.Fatalf("FDs after batch = %v, want %v", got, want)
	}
	if len(got) != 6 {
		t.Errorf("Figure 4 shows 6 minimal FDs, got %d", len(got))
	}
	if !fd.Follows(got, fd.FD{Lhs: attrset.Of(F), Rhs: C}) {
		t.Error("f -> c must be valid after the batch")
	}
	if !e.fds.Contains(attrset.Of(Z), C) {
		t.Error("z -> c must remain a minimal FD")
	}
	if e.fds.Contains(attrset.Of(F, C), Z) {
		t.Error("fc -> z must no longer be a minimal FD")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The reported diff must be consistent.
	if len(res.Added) == 0 || len(res.Removed) == 0 {
		t.Errorf("diff added=%v removed=%v", res.Added, res.Removed)
	}
}

func TestEmptyEngineGrowsFromNothing(t *testing.T) {
	t.Parallel()
	e := NewEmpty(3, DefaultConfig())
	want := []fd.FD{{Rhs: 0}, {Rhs: 1}, {Rhs: 2}}
	if got := e.FDs(); !fd.Equal(got, want) {
		t.Fatalf("initial FDs = %v", got)
	}
	if len(e.NonFDs()) != 0 {
		t.Fatalf("initial NonFDs = %v", e.NonFDs())
	}
	rows := [][]string{
		{"1", "x", "p"},
		{"2", "x", "p"},
		{"3", "y", "q"},
	}
	for _, row := range rows {
		if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
			{Kind: stream.Insert, Values: row},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	got := e.FDs()
	wantFDs := oracle.MinimalFDs(rows, 3)
	if !fd.Equal(got, wantFDs) {
		t.Errorf("FDs = %v, want %v", got, wantFDs)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUpdateIsDeletePlusInsert(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	// Update tuple 1 (id 0) to new values; the old version must be gone.
	res, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Update, ID: 0, Values: []string{"Mia", "Jones", "99999", "Hamburg"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InsertedIDs) != 1 {
		t.Fatalf("InsertedIDs = %v", res.InsertedIDs)
	}
	if _, ok := e.Record(0); ok {
		t.Error("old record version still alive")
	}
	vals, ok := e.Record(res.InsertedIDs[0])
	if !ok || vals[3] != "Hamburg" {
		t.Errorf("new record = %v, %v", vals, ok)
	}
	if e.NumRecords() != 4 {
		t.Errorf("NumRecords = %d", e.NumRecords())
	}
	rows := [][]string{
		{"Mia", "Jones", "99999", "Hamburg"},
		{"Max", "Miller", "14482", "Potsdam"},
		{"Max", "Jones", "10115", "Berlin"},
		{"Anna", "Scott", "13591", "Berlin"},
	}
	if got, want := e.FDs(), oracle.MinimalFDs(rows, 4); !fd.Equal(got, want) {
		t.Errorf("FDs = %v, want %v", got, want)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDeleteToEmpty(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	_, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 0},
		{Kind: stream.Delete, ID: 1},
		{Kind: stream.Delete, ID: 2},
		{Kind: stream.Delete, ID: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumRecords() != 0 {
		t.Fatalf("NumRecords = %d", e.NumRecords())
	}
	// On the empty relation every FD holds: positive cover {∅→A}.
	want := []fd.FD{{Rhs: 0}, {Rhs: 1}, {Rhs: 2}, {Rhs: 3}}
	if got := e.FDs(); !fd.Equal(got, want) {
		t.Errorf("FDs = %v, want %v", got, want)
	}
	if len(e.NonFDs()) != 0 {
		t.Errorf("NonFDs = %v", e.NonFDs())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBatchErrors(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"too", "short"}},
	}}); err == nil {
		t.Error("wrong-arity insert accepted")
	}
	e = mustBootstrap(t, DefaultConfig())
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 999},
	}}); err == nil {
		t.Error("delete of unknown record accepted")
	}
}

func TestEmptyBatchIsNoOp(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	before := e.FDs()
	res, err := e.ApplyBatch(stream.Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 0 || len(res.Removed) != 0 {
		t.Errorf("diff on empty batch: %v / %v", res.Added, res.Removed)
	}
	if got := e.FDs(); !fd.Equal(got, before) {
		t.Error("FDs changed on empty batch")
	}
}

func TestStatsAccumulate(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	if e.Stats().Batches != 0 {
		t.Error("fresh engine has batches")
	}
	_, _ = e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"Max", "Jones", "14482", "Berlin"}},
	}})
	st := e.Stats()
	if st.Batches != 1 || st.Validations == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// allConfigs enumerates all 16 pruning-strategy combinations.
func allConfigs() []Config {
	var out []Config
	for mask := 0; mask < 16; mask++ {
		out = append(out, Config{
			ClusterPruning:    mask&1 != 0,
			ViolationSearch:   mask&2 != 0,
			ValidationPruning: mask&4 != 0,
			DepthFirstSearch:  mask&8 != 0,
		})
	}
	return out
}

// TestPruningNeutralityPaperBatch asserts invariant 5 of DESIGN.md: all 16
// strategy combinations produce identical covers on the paper's batch.
func TestPruningNeutralityPaperBatch(t *testing.T) {
	t.Parallel()
	var wantFDs, wantNonFDs []fd.FD
	for i, cfg := range allConfigs() {
		e := mustBootstrap(t, cfg)
		if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
			{Kind: stream.Delete, ID: 2},
			{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
			{Kind: stream.Insert, Values: []string{"Marie", "Gray", "14469", "Potsdam"}},
		}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantFDs, wantNonFDs = e.FDs(), e.NonFDs()
			continue
		}
		if got := e.FDs(); !fd.Equal(got, wantFDs) {
			t.Errorf("config %+v: FDs = %v, want %v", cfg, got, wantFDs)
		}
		if got := e.NonFDs(); !fd.Equal(got, wantNonFDs) {
			t.Errorf("config %+v: NonFDs = %v, want %v", cfg, got, wantNonFDs)
		}
	}
}

func TestLookupAfterChanges(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	ids, err := e.Lookup([]string{"Max", "Jones", "14482", "Potsdam"})
	if err != nil || len(ids) != 1 || ids[0] != 0 {
		t.Errorf("Lookup = %v, %v", ids, err)
	}
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	ids, err = e.Lookup([]string{"Max", "Jones", "14482", "Potsdam"})
	if err != nil || len(ids) != 0 {
		t.Errorf("Lookup after delete = %v, %v", ids, err)
	}
}

func ExampleEngine() {
	rel := dataset.New("people", []string{"zip", "city"})
	_ = rel.Append([]string{"14482", "Potsdam"})
	_ = rel.Append([]string{"10115", "Berlin"})
	e, err := Bootstrap(rel, DefaultConfig())
	if err != nil {
		panic(err)
	}
	res, _ := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"14482", "Babelsberg"}},
	}})
	for _, f := range res.Removed {
		fmt.Println("removed:", f.Names(rel.Columns))
	}
	// Output:
	// removed: [zip] -> city
}

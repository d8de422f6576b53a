package pli

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dynfd/internal/datagen"
	"dynfd/internal/fanout/fanouttest"
)

// codeRows codes rows the way a checkpoint does: per attribute, values
// numbered in order of first occurrence.
func codeRows(ids []int64, rows [][]string, numAttrs int) *Coded {
	rel := &Coded{IDs: ids, Codes: make([][]int32, numAttrs), Dicts: make([][]string, numAttrs)}
	for a := 0; a < numAttrs; a++ {
		seen := make(map[string]int32)
		rel.Codes[a] = make([]int32, len(rows))
		for i, row := range rows {
			c, ok := seen[row[a]]
			if !ok {
				c = int32(len(rel.Dicts[a]))
				seen[row[a]] = c
				rel.Dicts[a] = append(rel.Dicts[a], row[a])
			}
			rel.Codes[a][i] = c
		}
	}
	return rel
}

// liveRows lists a store's live records in id order with their values.
func liveRows(s *Store) (ids []int64, rows [][]string) {
	s.ForEachRecord(func(id int64, _ Record) bool {
		v, _ := s.Values(id)
		ids = append(ids, id)
		rows = append(rows, v)
		return true
	})
	return ids, rows
}

// applyFromEmpty builds the reference store: ApplyBatch of the records
// into an empty store.
func applyFromEmpty(t *testing.T, numAttrs int, ids []int64, rows [][]string) *Store {
	t.Helper()
	s := NewStore(numAttrs)
	ins := make([]BatchInsert, len(ids))
	for i := range ids {
		ins[i] = BatchInsert{ID: ids[i], Values: rows[i]}
	}
	if err := s.ApplyBatch(nil, ins); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameStore fails unless got holds what want holds: the id horizon, per
// attribute the cid horizon, the cluster count and every cluster's value
// and ids at its cid, and every record's cids; got must also pass
// CheckConsistency.
func sameStore(t *testing.T, want, got *Store) {
	t.Helper()
	if want.NextID() != got.NextID() || want.NumRecords() != got.NumRecords() {
		t.Fatalf("next id %d/%d, records %d/%d", want.NextID(), got.NextID(), want.NumRecords(), got.NumRecords())
	}
	for a := 0; a < want.NumAttrs(); a++ {
		wx, gx := want.Index(a), got.Index(a)
		if wx.Horizon() != gx.Horizon() || wx.NumClusters() != gx.NumClusters() {
			t.Fatalf("attribute %d: horizon %d/%d, clusters %d/%d",
				a, wx.Horizon(), gx.Horizon(), wx.NumClusters(), gx.NumClusters())
		}
		for cid := int32(0); cid < wx.Horizon(); cid++ {
			wc, gc := wx.Cluster(cid), gx.Cluster(cid)
			if (wc == nil) != (gc == nil) {
				t.Fatalf("attribute %d cluster %d: present %v/%v", a, cid, wc != nil, gc != nil)
			}
			if wc != nil && (wc.Value != gc.Value || !slices.Equal(wc.IDs, gc.IDs)) {
				t.Fatalf("attribute %d cluster %d: %q %v, want %q %v", a, cid, gc.Value, gc.IDs, wc.Value, wc.IDs)
			}
		}
	}
	want.ForEachRecord(func(id int64, rec Record) bool {
		if other, ok := got.Record(id); !ok || !slices.Equal(rec, other) {
			t.Fatalf("record %d: cids %v, want %v (live %v)", id, other, rec, ok)
		}
		return true
	})
	if err := got.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadMatchesApplyBatch: the bulk loader, fed codes or rows at a
// fan-out width (GOMAXPROCS) of one or two, builds the store ApplyBatch
// builds from empty — on the bootstrap relations of three datasets, on
// states with id gaps after deletes, and on an empty relation. The
// subtest's workers=n names the width.
func TestLoadMatchesApplyBatch(t *testing.T) {
	type state struct {
		name     string
		numAttrs int
		ids      []int64
		rows     [][]string
	}
	states := []state{{"empty", 3, nil, nil}}
	for _, name := range []string{"artist", "disease", "claims"} {
		p, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Scaled(0.02)
		p.Changes = 0
		ds, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		rows := ds.Relation.Rows
		numAttrs := ds.Relation.NumColumns()
		ids := make([]int64, len(rows))
		for i := range ids {
			ids[i] = int64(i)
		}
		states = append(states, state{name, numAttrs, ids, rows})

		// Delete every third record and re-insert a tenth of the rows
		// under fresh ids: a state with id gaps and dead clusters.
		s := applyFromEmpty(t, numAttrs, ids, rows)
		var dels []int64
		for i := 0; i < len(ids); i += 3 {
			dels = append(dels, ids[i])
		}
		var ins []BatchInsert
		for i := 0; i < len(rows); i += 10 {
			ins = append(ins, BatchInsert{ID: s.NextID() + int64(i), Values: rows[len(rows)-1-i]})
		}
		if err := s.ApplyBatch(dels, ins); err != nil {
			t.Fatal(err)
		}
		gapIDs, gapRows := liveRows(s)
		states = append(states, state{name + "/gaps", numAttrs, gapIDs, gapRows})
	}
	for _, st := range states {
		want := applyFromEmpty(t, st.numAttrs, st.ids, st.rows)
		rel := codeRows(st.ids, st.rows, st.numAttrs)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", st.name, workers), func(t *testing.T) {
				fanouttest.SetGOMAXPROCS(t, workers)
				fromCodes := NewStore(st.numAttrs)
				if err := fromCodes.Load(rel); err != nil {
					t.Fatal(err)
				}
				sameStore(t, want, fromCodes)
				fromRows := NewStore(st.numAttrs)
				if err := fromRows.LoadRows(st.ids, st.rows); err != nil {
					t.Fatal(err)
				}
				sameStore(t, want, fromRows)
			})
		}
	}
}

// TestLoadRejects: the loader refuses input ApplyBatch could not have
// produced the store from, with the same error at GOMAXPROCS 1 and 2.
func TestLoadRejects(t *testing.T) {
	ids := []int64{0, 2, 5}
	rows := [][]string{{"a", "x"}, {"b", "x"}, {"a", "y"}}
	for name, tc := range map[string]struct {
		rel  func() *Coded
		want string
	}{
		"repeated value": {func() *Coded {
			rel := codeRows(ids, rows, 2)
			rel.Dicts[0] = []string{"a", "a"}
			return rel
		}, `attribute 0: dictionary repeats value "a"`},
		"code ahead": {func() *Coded {
			rel := codeRows(ids, rows, 2)
			rel.Codes[1] = []int32{1, 0, 1}
			return rel
		}, "code 1 out of order"},
		"code beyond dictionary": {func() *Coded {
			rel := codeRows(ids, rows, 2)
			rel.Codes[1] = []int32{0, 1, 2}
			return rel
		}, "code 2 out of order"},
		"unused value": {func() *Coded {
			rel := codeRows(ids, rows, 2)
			rel.Dicts[1] = append(rel.Dicts[1], "z")
			return rel
		}, "codes use 2 of 3 dictionary values"},
		"ids out of order": {func() *Coded {
			return codeRows([]int64{0, 5, 2}, rows, 2)
		}, "not ascending"},
		"short codes": {func() *Coded {
			rel := codeRows(ids, rows, 2)
			rel.Codes[0] = rel.Codes[0][:2]
			return rel
		}, "has 2 codes for 3 records"},
		"wrong width": {func() *Coded {
			rel := codeRows(ids, rows, 2)
			rel.Codes, rel.Dicts = rel.Codes[:1], rel.Dicts[:1]
			return rel
		}, "schema has 2 attributes"},
	} {
		for _, procs := range []int{1, 2} {
			fanouttest.SetGOMAXPROCS(t, procs)
			err := NewStore(2).Load(tc.rel())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, GOMAXPROCS %d: err = %v, want %q", name, procs, err, tc.want)
			}
		}
	}
	s := NewStore(2)
	if _, err := s.Insert([]string{"a", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows([]int64{1}, [][]string{{"b", "y"}}); err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Errorf("load into a populated store: err = %v", err)
	}
	if err := NewStore(2).LoadRows(ids, [][]string{{"a", "x"}, {"b"}, {"a", "y"}}); err == nil ||
		!strings.Contains(err.Error(), "row 1 has 1 values") {
		t.Errorf("short row: err = %v", err)
	}
}

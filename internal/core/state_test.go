package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dynfd/internal/datagen"
	"dynfd/internal/pli"
	"dynfd/internal/stream"
)

// churnBatch deletes every seventh live record and rewrites every
// eleventh with another record's values: the deletes and updates of a
// history whose own stream is insert-only.
func churnBatch(e *Engine) stream.Batch {
	var ids []int64
	var rows [][]string
	e.ForEachRecord(func(id int64, values []string) bool {
		ids = append(ids, id)
		rows = append(rows, values)
		return true
	})
	var b stream.Batch
	for i, id := range ids {
		switch {
		case i%7 == 3:
			b.Changes = append(b.Changes, stream.Change{Kind: stream.Delete, ID: id})
		case i%11 == 5:
			b.Changes = append(b.Changes, stream.Change{Kind: stream.Update, ID: id, Values: rows[(i*5)%len(rows)]})
		}
	}
	return b
}

// workCounters returns e's Stats with the wall-clock fields zeroed.
func workCounters(e *Engine) Stats {
	st := e.Stats()
	st.StructureTime, st.DeletePhaseTime, st.InsertPhaseTime = 0, 0, 0
	return st
}

// restoreBoth restores e once from its JSON snapshot, as JSON checkpoints
// carry it, and once from its binary state encoding, and returns the two
// engines and the encoding.
func restoreBoth(t *testing.T, e *Engine) (fromJSON, fromBinary *Engine, state []byte) {
	t.Helper()
	blob, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var js Snapshot
	if err := json.Unmarshal(blob, &js); err != nil {
		t.Fatal(err)
	}
	if fromJSON, err = Restore(&js); err != nil {
		t.Fatal(err)
	}
	state = e.AppendState(nil)
	bs, err := DecodeState(state, e.NumAttrs())
	if err != nil {
		t.Fatal(err)
	}
	bs.Config = e.Config()
	if fromBinary, err = Restore(bs); err != nil {
		t.Fatal(err)
	}
	return fromJSON, fromBinary, state
}

// sameEngines fails unless a and b hold the same records under the same
// cluster ids, the same covers, and the same witnesses.
func sameEngines(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.NumRecords() != b.NumRecords() || a.store.NextID() != b.store.NextID() {
		t.Fatalf("records %d/%d next id %d/%d", a.NumRecords(), b.NumRecords(), a.store.NextID(), b.store.NextID())
	}
	for attr := 0; attr < a.numAttrs; attr++ {
		if ha, hb := a.store.Index(attr).Horizon(), b.store.Index(attr).Horizon(); ha != hb {
			t.Fatalf("attribute %d: cid horizon %d vs %d", attr, ha, hb)
		}
	}
	a.store.ForEachRecord(func(id int64, rec pli.Record) bool {
		other, ok := b.store.Record(id)
		if !ok || !slices.Equal(rec, other) {
			t.Fatalf("record %d: cids %v vs %v (live %v)", id, rec, other, ok)
		}
		return true
	})
	if fmt.Sprint(a.FDs()) != fmt.Sprint(b.FDs()) {
		t.Fatalf("positive covers differ:\n%v\n%v", a.FDs(), b.FDs())
	}
	nonFDs := a.NonFDs()
	if fmt.Sprint(nonFDs) != fmt.Sprint(b.NonFDs()) {
		t.Fatalf("negative covers differ:\n%v\n%v", nonFDs, b.NonFDs())
	}
	for _, f := range nonFDs {
		va, oka := a.nonFds.Violation(f.Lhs, f.Rhs)
		vb, okb := b.nonFds.Violation(f.Lhs, f.Rhs)
		if va != vb || oka != okb {
			t.Fatalf("witness of %v: %v (%v) vs %v (%v)", f, va, oka, vb, okb)
		}
	}
}

// TestStateRestoreMatchesJSON restores one engine from its JSON snapshot
// and from its binary state, after a history with deletes and updates,
// and requires the two to be the same engine: every record under the same
// cluster ids, the same covers and witnesses, and — the counters being a
// pure function of the state — the same work counters and covers over the
// batches that follow. Both restores re-encode to the
// bytes they were restored from.
func TestStateRestoreMatchesJSON(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
		churn bool // the stream is insert-only
	}{{"artist", 0.05, false}, {"disease", 0.1, false}, {"claims", 0.2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p, err := datagen.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			p = p.Scaled(tc.scale)
			p.Changes = 1000
			ds, err := datagen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Bootstrap(ds.Relation, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			const batch, split = 100, 600
			for i := 0; i < split; i += batch {
				if _, err := e.ApplyBatch(stream.Batch{Changes: ds.Changes[i : i+batch]}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.churn {
				if _, err := e.ApplyBatch(churnBatch(e)); err != nil {
					t.Fatal(err)
				}
			}
			if e.store.NextID() == int64(e.NumRecords()) {
				t.Fatal("the history deleted no record")
			}

			fromJSON, fromBinary, state := restoreBoth(t, e)
			sameEngines(t, fromJSON, fromBinary)
			for name, r := range map[string]*Engine{"json": fromJSON, "binary": fromBinary} {
				if got := r.AppendState(nil); !bytes.Equal(got, state) {
					t.Fatalf("%s restore re-encodes to %d bytes, differing from the %d it came from", name, len(got), len(state))
				}
			}
			for i := split; i < len(ds.Changes); i += batch {
				b := stream.Batch{Changes: ds.Changes[i:min(i+batch, len(ds.Changes))]}
				for _, r := range []*Engine{fromJSON, fromBinary} {
					if _, err := r.ApplyBatch(b); err != nil {
						t.Fatalf("batch at change %d: %v", i, err)
					}
				}
				if wj, wb := workCounters(fromJSON), workCounters(fromBinary); wj != wb {
					t.Fatalf("work counters after change %d differ:\n json   %+v\n binary %+v", i, wj, wb)
				}
			}
			if workCounters(fromBinary).Validations == 0 {
				t.Fatal("the batches after the restore ran no validations")
			}
			sameEngines(t, fromJSON, fromBinary)
		})
	}
}

// TestDecodeStateRejects: the decoder accepts nothing but AppendState
// encodings.
func TestDecodeStateRejects(t *testing.T) {
	t.Parallel()
	e := NewEmpty(2, DefaultConfig())
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"a", "x"}},
		{Kind: stream.Insert, Values: []string{"b", "x"}},
		{Kind: stream.Insert, Values: []string{"a", "y"}},
	}}); err != nil {
		t.Fatal(err)
	}
	state := e.AppendState(nil)
	if _, err := DecodeState(state, 2); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"appended byte": append(slices.Clone(state), 0),
		"wrong width":   state,
		// A code beyond the values seen so far.
		"code ahead": {3, 3, 0, 0, 0, 1, 1, 'a', 0, 0, 0, 1, 'x', 0, 0, 0, 0},
		// A record id at the next id.
		"id beyond next id": {1, 1, 1, 0, 1, 'a', 0, 1, 'x', 0, 0},
	} {
		width := 2
		if name == "wrong width" {
			width = 3
		}
		if _, err := DecodeState(b, width); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: err = %v, want ErrBadState", name, err)
		}
	}
	// nextID 3; ids 0 1 2; attribute 0: a, b, then a again introduced as
	// a new value; attribute 1: x x y; empty covers. The decoder leaves
	// this one to Restore, whose bulk loader refuses the dictionary.
	twice, err := DecodeState([]byte{3, 3, 0, 0, 0, 0, 1, 'a', 1, 1, 'b', 2, 1, 'a', 0, 1, 'x', 0, 1, 1, 'y', 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(twice); err == nil || !strings.Contains(err.Error(), `attribute 0: dictionary repeats value "a"`) {
		t.Errorf("value introduced twice: Restore err = %v", err)
	}
	for n := 0; n < len(state); n++ {
		if _, err := DecodeState(state[:n], 2); !errors.Is(err, ErrBadState) {
			t.Fatalf("truncation to %d of %d bytes: err = %v", n, len(state), err)
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/stream"
)

// randomHistory returns a relation over attrs columns plus a stream of
// batches of inserts, deletes and updates against it (ids follow the
// engine's id contract), with values drawn from a small domain so that
// FDs keep appearing and disappearing.
func randomHistory(seed int64, attrs, rows, batches, batchSize, domain int) (*dataset.Relation, []stream.Batch) {
	r := rand.New(rand.NewSource(seed))
	cols := make([]string, attrs)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	row := func() []string {
		v := make([]string, attrs)
		for a := range v {
			v[a] = fmt.Sprint(r.Intn(domain))
		}
		return v
	}
	rel := dataset.New("t", cols)
	var live []int64
	for i := 0; i < rows; i++ {
		rel.Append(row())
		live = append(live, int64(i))
	}
	next := int64(rows)
	var out []stream.Batch
	for b := 0; b < batches; b++ {
		var batch stream.Batch
		for c := 0; c < batchSize; c++ {
			op := r.Intn(4)
			if len(live) == 0 {
				op = 0
			}
			switch op {
			case 0, 1:
				batch.Changes = append(batch.Changes, stream.Change{Kind: stream.Insert, Values: row()})
				live = append(live, next)
				next++
			case 2, 3:
				i := r.Intn(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if op == 2 {
					batch.Changes = append(batch.Changes, stream.Change{Kind: stream.Delete, ID: id})
					continue
				}
				batch.Changes = append(batch.Changes, stream.Change{Kind: stream.Update, ID: id, Values: row()})
				live = append(live, next)
				next++
			}
		}
		// A record born and deleted inside the batch.
		if b%3 == 0 {
			batch.Changes = append(batch.Changes,
				stream.Change{Kind: stream.Insert, Values: row()},
				stream.Change{Kind: stream.Delete, ID: next})
			next++
		}
		out = append(out, batch)
	}
	return rel, out
}

// TestApplyPatchedMatchesApplyBatch: a follower that starts from the
// primary's snapshot and applies every batch by patching the primary's
// encoded cover delta holds exactly the primary's state after every batch
// — records and ids, both covers, every witness — and reports the same
// result, without running a single validation. The primary's reported FD
// diff, now derived from the cover journal, equals the diff of its full
// covers.
func TestApplyPatchedMatchesApplyBatch(t *testing.T) {
	t.Parallel()
	shapes := []struct{ attrs, rows, batchSize, domain int }{
		{4, 20, 5, 3},
		{5, 40, 12, 4},
		{6, 30, 30, 2},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, sh := range shapes {
			cfgs := allConfigs()
			cfg := cfgs[int(seed)%len(cfgs)]
			rel, batches := randomHistory(seed, sh.attrs, sh.rows, 12, sh.batchSize, sh.domain)
			primary, err := Bootstrap(rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			follower, err := Restore(primary.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				before := primary.FDs()
				res, err := primary.ApplyBatch(b)
				if err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, i, err)
				}
				added, removed := fd.Diff(before, primary.FDs())
				if fmt.Sprint(res.Added, res.Removed) != fmt.Sprint(added, removed) {
					t.Fatalf("seed %d batch %d: result diff %v/%v, cover diff %v/%v", seed, i, res.Added, res.Removed, added, removed)
				}
				enc := primary.AppendCoverDelta(nil)
				d, err := DecodeCoverDelta(enc)
				if err != nil {
					t.Fatalf("seed %d batch %d: decoding own delta: %v", seed, i, err)
				}
				fres, err := follower.ApplyPatched(b, d)
				if err != nil {
					t.Fatalf("seed %d batch %d: patching: %v", seed, i, err)
				}
				if !reflect.DeepEqual(fres, res) {
					t.Fatalf("seed %d batch %d: follower result %+v, primary %+v", seed, i, fres, res)
				}
				if !reflect.DeepEqual(follower.Snapshot(), primary.Snapshot()) {
					t.Fatalf("seed %d batch %d: follower state differs from the primary's", seed, i)
				}
			}
			s := follower.Stats()
			if s.CoverPatches != len(batches) || s.Batches != len(batches) || s.Validations != 0 {
				t.Fatalf("follower stats %+v: want %d patched batches and no validations", s, len(batches))
			}
			if err := follower.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestApplyPatchedRejectsMisfitDelta: a delta that does not fit the
// engine — other schema width, other ids, a slot in the wrong
// before-state, a size that does not add up — is refused with
// ErrDeltaMismatch before anything changes, and the engine stays usable.
func TestApplyPatchedRejectsMisfitDelta(t *testing.T) {
	t.Parallel()
	// The first history whose first batch changes some FD.
	var primary, follower *Engine
	var batches []stream.Batch
	var good *CoverDelta
	for seed := int64(1); good == nil || len(good.FDs) == 0; seed++ {
		var rel *dataset.Relation
		rel, batches = randomHistory(seed, 5, 30, 1, 10, 3)
		var err error
		if primary, err = Bootstrap(rel, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if follower, err = Restore(primary.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.ApplyBatch(batches[0]); err != nil {
			t.Fatal(err)
		}
		if good, err = DecodeCoverDelta(primary.AppendCoverDelta(nil)); err != nil {
			t.Fatal(err)
		}
	}
	mutations := map[string]func(d *CoverDelta){
		"schema":       func(d *CoverDelta) { d.NumAttrs++ },
		"next id":      func(d *CoverDelta) { d.NextID++ },
		"fd count":     func(d *CoverDelta) { d.FDCount++ },
		"non-fd count": func(d *CoverDelta) { d.NonFDCount-- },
		"before-state": func(d *CoverDelta) {
			d.FDs[0].Was, d.FDs[0].Now.Present = d.FDs[0].Now.Present, d.FDs[0].Was
		},
	}
	want := follower.Snapshot()
	for name, mutate := range mutations {
		d := *good
		d.FDs = append([]lattice.Change(nil), good.FDs...)
		mutate(&d)
		if _, err := follower.ApplyPatched(batches[0], &d); !errors.Is(err, ErrDeltaMismatch) {
			t.Fatalf("%s: err = %v, want ErrDeltaMismatch", name, err)
		}
		if !reflect.DeepEqual(follower.Snapshot(), want) || follower.Poisoned() != nil {
			t.Fatalf("%s: a refused delta changed the engine", name)
		}
	}
	if _, err := follower.ApplyPatched(batches[0], good); err != nil {
		t.Fatalf("the fitting delta after refusals: %v", err)
	}
	if !reflect.DeepEqual(follower.Snapshot(), primary.Snapshot()) {
		t.Fatal("follower differs from the primary")
	}
}

// TestCoverDeltaCodec round-trips a delta that uses every field at its
// extremes and pins the decoder's rejections.
func TestCoverDeltaCodec(t *testing.T) {
	t.Parallel()
	d := &CoverDelta{
		NumAttrs: attrset.MaxAttrs, NextID: math.MaxInt64, FDCount: 3, NonFDCount: 1 << 20,
		FDs: []lattice.Change{
			{FD: fd.FD{Rhs: 0}, Now: lattice.Entry{Present: true}},
			{FD: fd.FD{Lhs: attrset.Of(0, 7, 255), Rhs: 3}, Was: true},
		},
		NonFDs: []lattice.Change{
			{FD: fd.FD{Lhs: attrset.Of(1), Rhs: 0}, Now: lattice.Entry{Present: true, HasWitness: true, Witness: lattice.Violation{A: 0, B: math.MaxInt64}}},
			{FD: fd.FD{Lhs: attrset.Of(2), Rhs: 0}, Was: true, Now: lattice.Entry{Present: true}},
			{FD: fd.FD{Lhs: attrset.Of(2, 3), Rhs: 1}, Was: true},
		},
	}
	enc := d.AppendBinary(nil)
	got, err := DecodeCoverDelta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeCoverDelta(enc[:n]); !errors.Is(err, ErrBadCoverDelta) {
			t.Fatalf("truncation to %d bytes: err = %v", n, err)
		}
	}

	entry := func(flags byte, lhs []byte, rhs byte, tail ...byte) []byte {
		b := append([]byte{flags, byte(len(lhs))}, lhs...)
		return append(append(b, rhs), tail...)
	}
	header := []byte{coverDeltaVersion, 4, 0, 0, 0}
	frame := func(fds, nonFDs [][]byte) []byte {
		b := append([]byte(nil), header...)
		for _, list := range [][][]byte{fds, nonFDs} {
			b = append(b, byte(len(list)))
			for _, e := range list {
				b = append(b, e...)
			}
		}
		return b
	}
	if _, err := DecodeCoverDelta(frame(nil, [][]byte{entry(flagIs|flagWitness, []byte{1}, 0, 1, 2)})); err != nil {
		t.Fatalf("valid hand-built delta rejected: %v", err)
	}
	bad := map[string][]byte{
		"empty":            nil,
		"version":          {2, 4, 0, 0, 0, 0, 0},
		"zero attributes":  {coverDeltaVersion, 0, 0, 0, 0, 0, 0},
		"too many attrs":   {coverDeltaVersion, 0x81, 0x02, 0, 0, 0, 0, 0},
		"non-minimal":      {coverDeltaVersion, 0x84, 0x00, 0, 0, 0, 0, 0},
		"trailing byte":    append(frame(nil, nil), 0),
		"count past input": append(append([]byte(nil), header...), 9, 0),
		"no change":        frame([][]byte{entry(0, nil, 0)}, nil),
		"positive stays":   frame([][]byte{entry(flagWas|flagIs, nil, 0)}, nil),
		"positive witness": frame([][]byte{entry(flagIs|flagWitness, nil, 0, 1, 2)}, nil),
		"removed witness":  frame(nil, [][]byte{entry(flagWas|flagWitness, nil, 0, 1, 2)}),
		"unknown flag":     frame([][]byte{entry(flagIs|8, nil, 0)}, nil),
		"trivial":          frame([][]byte{entry(flagIs, []byte{1}, 1)}, nil),
		"attr range":       frame([][]byte{entry(flagIs, []byte{4}, 0)}, nil),
		"rhs range":        frame([][]byte{entry(flagIs, nil, 4)}, nil),
		"order":            frame([][]byte{entry(flagIs, nil, 1), entry(flagIs, nil, 0)}, nil),
		"duplicate":        frame([][]byte{entry(flagIs, nil, 1), entry(flagIs, nil, 1)}, nil),
	}
	for name, b := range bad {
		if _, err := DecodeCoverDelta(b); !errors.Is(err, ErrBadCoverDelta) {
			t.Errorf("%s: err = %v, want ErrBadCoverDelta", name, err)
		}
	}
}

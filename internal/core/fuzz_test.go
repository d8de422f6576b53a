package core

import (
	"fmt"
	"testing"

	"dynfd/internal/dataset"
	"dynfd/internal/fanout/fanouttest"
	"dynfd/internal/fd"
	"dynfd/internal/oracle"
	"dynfd/internal/stream"
)

// FuzzApplyBatch decodes the fuzz input into a sequence of insert, update
// and delete operations, applies them in small batches, and after every
// batch asserts the full correctness contract: the engine's internal
// invariants hold and its covers equal a from-scratch rediscovery over a
// shadow copy of the live rows. The same op stream is fed to an engine
// maintained inline at GOMAXPROCS 1 and one maintained at GOMAXPROCS 4, so
// the fuzzer also hunts for covers that depend on the fan-out width.
//
// Input encoding (one op per step, reading bytes left to right):
//
//	op byte %4: 0,1 = insert, 2 = delete, 3 = update
//	insert/update: next fuzzAttrs bytes are the cell values (% fuzzDomain)
//	delete/update: one byte selects the victim among the live rows
//
// Decoding stops after fuzzMaxOps operations or when the input runs dry.
func FuzzApplyBatch(f *testing.F) {
	const (
		fuzzAttrs  = 4
		fuzzDomain = 3
		fuzzMaxOps = 48
		batchSize  = 4
	)
	// Seed corpus: pure inserts, insert/delete churn, duplicate-heavy
	// rows, updates over a tiny relation, and an all-ops mix.
	f.Add([]byte{0, 1, 2, 0, 1, 0, 0, 1, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2})
	f.Add([]byte{0, 0, 1, 2, 0, 3, 0, 2, 2, 1, 0, 3, 1, 1, 1, 1, 2})
	f.Add([]byte{0, 2, 1, 0, 2, 1, 0, 0, 1, 2, 3, 0, 0, 0, 0, 0, 2, 1, 0, 1, 0, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		cols := make([]string, fuzzAttrs)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i)
		}
		fanouttest.SetGOMAXPROCS(t, 1)
		serial, err := Bootstrap(dataset.New("t", cols), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fanouttest.SetGOMAXPROCS(t, 4)
		parallel, err := Bootstrap(dataset.New("t", cols), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}

		// Shadow model: id -> row, mirroring what the engines should hold.
		model := map[int64][]string{}
		var live []int64
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}

		var changes []stream.Change
		pendingDeletes := map[int64]bool{}
		var pendingRows [][]string
		flush := func() {
			if len(changes) == 0 {
				return
			}
			batch := stream.Batch{Changes: changes}
			fanouttest.SetGOMAXPROCS(t, 1)
			resS, err := serial.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("serial ApplyBatch: %v", err)
			}
			fanouttest.SetGOMAXPROCS(t, 4)
			if _, err := parallel.ApplyBatch(batch); err != nil {
				t.Fatalf("parallel ApplyBatch: %v", err)
			}
			for id := range pendingDeletes {
				delete(model, id)
			}
			if len(resS.InsertedIDs) != len(pendingRows) {
				t.Fatalf("%d inserted ids for %d rows", len(resS.InsertedIDs), len(pendingRows))
			}
			for i, id := range resS.InsertedIDs {
				model[id] = pendingRows[i]
			}
			live = live[:0]
			for id := range model {
				live = append(live, id)
			}

			rows := make([][]string, 0, len(model))
			for _, row := range model {
				rows = append(rows, row)
			}
			if got, want := serial.FDs(), oracle.MinimalFDs(rows, fuzzAttrs); !fd.Equal(got, want) {
				t.Fatalf("FDs diverged from rediscovery\n got  %v\n want %v\n rows %v", got, want, rows)
			}
			if got, want := serial.NonFDs(), oracle.MaximalNonFDs(rows, fuzzAttrs); !fd.Equal(got, want) {
				t.Fatalf("non-FDs diverged from rediscovery\n got  %v\n want %v\n rows %v", got, want, rows)
			}
			if !fd.Equal(parallel.FDs(), serial.FDs()) || !fd.Equal(parallel.NonFDs(), serial.NonFDs()) {
				t.Fatalf("serial/parallel covers diverged\n serial   %v / %v\n parallel %v / %v",
					serial.FDs(), serial.NonFDs(), parallel.FDs(), parallel.NonFDs())
			}
			if err := serial.CheckInvariants(); err != nil {
				t.Fatalf("serial invariants: %v", err)
			}
			if err := parallel.CheckInvariants(); err != nil {
				t.Fatalf("parallel invariants: %v", err)
			}
			changes = changes[:0]
			pendingDeletes = map[int64]bool{}
			pendingRows = pendingRows[:0]
		}

		readRow := func() ([]string, bool) {
			row := make([]string, fuzzAttrs)
			for a := range row {
				b, ok := next()
				if !ok {
					return nil, false
				}
				row[a] = fmt.Sprint(int(b) % fuzzDomain)
			}
			return row, true
		}
		// untouched picks a live victim not already deleted or updated in
		// the pending batch (ApplyBatch rejects double-touches).
		untouched := func(sel byte) (int64, bool) {
			if len(live) == 0 {
				return 0, false
			}
			start := int(sel) % len(live)
			for i := 0; i < len(live); i++ {
				id := live[(start+i)%len(live)]
				if !pendingDeletes[id] {
					return id, true
				}
			}
			return 0, false
		}

		for ops := 0; ops < fuzzMaxOps; ops++ {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0, 1:
				row, ok := readRow()
				if !ok {
					break
				}
				changes = append(changes, stream.Change{Kind: stream.Insert, Values: row})
				pendingRows = append(pendingRows, row)
			case 2:
				sel, ok := next()
				if !ok {
					break
				}
				if id, ok := untouched(sel); ok {
					pendingDeletes[id] = true
					changes = append(changes, stream.Change{Kind: stream.Delete, ID: id})
				}
			case 3:
				sel, ok := next()
				if !ok {
					break
				}
				row, rok := readRow()
				if !rok {
					break
				}
				if id, ok := untouched(sel); ok {
					pendingDeletes[id] = true
					changes = append(changes, stream.Change{Kind: stream.Update, ID: id, Values: row})
					pendingRows = append(pendingRows, row)
				}
			}
			if len(changes) >= batchSize {
				flush()
			}
		}
		flush()
	})
}

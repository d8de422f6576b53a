package results_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dynfd/internal/core"
	"dynfd/internal/results"
	"dynfd/internal/stream"
)

// churnBatch deletes every live record holding one of the values in kill
// (capped at limit deletes) and inserts as many rows of values tagged with
// tag, which no earlier batch used. Values are drawn from one small pool
// shared by all columns, so unary INDs between the columns come and go.
// Every batch therefore kills clusters and mints fresh cluster ids; with
// fewer than 256 distinct values ever minted per column, all of them land
// on the first cluster-directory page, which every earlier snapshot shares.
func churnBatch(r *rand.Rand, e *core.Engine, attrs int, kill map[string]bool, limit int, tag string) stream.Batch {
	var changes []stream.Change
	e.ForEachRecord(func(id int64, values []string) bool {
		for _, v := range values {
			if kill[v] {
				changes = append(changes, stream.Change{Kind: stream.Delete, ID: id})
				break
			}
		}
		return len(changes) < limit
	})
	n := max(len(changes), 3)
	for i := 0; i < n; i++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprintf("%s-%d", tag, r.Intn(3))
		}
		changes = append(changes, stream.Change{Kind: stream.Insert, Values: row})
	}
	return stream.Batch{Changes: changes}
}

// valueSet returns the distinct values of the live relation.
func valueSet(rows [][]string) map[string]bool {
	set := map[string]bool{}
	for _, row := range rows {
		for _, v := range row {
			set[v] = true
		}
	}
	return set
}

// TestLateINDsOnOldSnapshot takes a snapshot S, churns the engine through
// 25 batches that delete S's values and mint fresh cluster ids on the
// directory pages S shares, and only then lists S's INDs for the first
// time. The listing must equal the brute-force answer recorded at S's
// sequence: the frozen directory still holds S's dead clusters (copy on
// write) and hides the fresh ones (cid horizon).
func TestLateINDsOnOldSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const attrs = 3
	e, cols := buildEngine(t, r, attrs, 30, 4)
	snap := e.BuildResults(nil, 0, cols, nil, nil)
	rows := liveRows(e)
	want := bruteINDs(rows, attrs)
	kill := valueSet(rows)

	prev := snap
	for b := 0; b < 25; b++ {
		res, err := e.ApplyBatch(churnBatch(r, e, attrs, kill, 8, fmt.Sprint("b", b)))
		if err != nil {
			t.Fatal(err)
		}
		prev = e.BuildResults(prev, uint64(b+1), cols, res.Added, res.Removed)
	}
	if left := valueSet(liveRows(e)); len(left) == 0 {
		t.Fatal("churn emptied the relation")
	} else {
		for v := range kill {
			if left[v] {
				t.Fatalf("churn left snapshot value %q alive", v)
			}
		}
	}

	if got := snap.INDs(); !indsEqual(got, want) {
		t.Fatalf("late INDs on snapshot 0:\n got  %v\n want %v", got, want)
	}
	// The newest snapshot answers for the churned relation.
	if got, want := prev.INDs(), bruteINDs(liveRows(e), attrs); !indsEqual(got, want) {
		t.Fatalf("INDs on the newest snapshot:\n got  %v\n want %v", got, want)
	}
}

// TestLateINDsConcurrentWriter lists each snapshot's INDs for the first time
// on a reader goroutine while the writer keeps churning the engine, minting
// fresh cluster ids on the directory pages the snapshot shares. Under -race
// this pins the frozen reader's horizon-before-load rule: loading a slot at
// or above the horizon races with the writer's in-place write.
func TestLateINDsConcurrentWriter(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const attrs = 3
	e, cols := buildEngine(t, r, attrs, 30, 4)

	type published struct {
		snap *results.Snapshot
		want []results.UnaryIND
	}
	ch := make(chan published)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range ch {
			if got := p.snap.INDs(); !indsEqual(got, p.want) {
				t.Errorf("seq %d INDs:\n got  %v\n want %v", p.snap.Seq(), got, p.want)
			}
		}
	}()
	defer func() {
		close(ch)
		<-done
	}()

	snap := e.BuildResults(nil, 0, cols, nil, nil)
	rows := liveRows(e)
	ch <- published{snap, bruteINDs(rows, attrs)}
	for b := 0; b < 40; b++ {
		res, err := e.ApplyBatch(churnBatch(r, e, attrs, valueSet(rows), 6, fmt.Sprint("b", b)))
		if err != nil {
			t.Fatal(err)
		}
		snap = e.BuildResults(snap, uint64(b+1), cols, res.Added, res.Removed)
		rows = liveRows(e)
		ch <- published{snap, bruteINDs(rows, attrs)}
	}
}

package pli

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// frozenValues lists attribute a's distinct values as a Frozen view reports
// them.
func frozenValues(f *Frozen, a int) []string {
	var out []string
	f.ForEachValue(a, &GroupBuf{}, func(v string) bool {
		out = append(out, v)
		return true
	})
	return out
}

// liveValues lists attribute a's distinct values in ascending cluster-id
// order, read from the live index.
func liveValues(ix *Index) []string {
	var out []string
	ix.ForEachCluster(func(_ int32, c *Cluster) bool {
		out = append(out, c.Value)
		return true
	})
	return out
}

// TestDirectoryUpdateChurn replaces half the records' values every batch
// until attribute 0 has minted cluster ids over more than 50 directory
// pages, freezing the store after every batch so that copy-on-write clones
// and frees shared pages. The store must stay consistent throughout, free
// every page whose clusters all died, walk clusters in ascending cid order,
// and every kept Frozen view must still list exactly the values it saw.
func TestDirectoryUpdateChurn(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(5))
	const rows, perBatch, pages = 100, 50, 52
	s := NewStore(2)
	var inserts []BatchInsert
	for i := 0; i < rows; i++ {
		inserts = append(inserts, BatchInsert{ID: int64(i), Values: []string{fmt.Sprint("v", i), fmt.Sprint(i % 7)}})
	}
	if err := s.ApplyBatch(nil, inserts, 1); err != nil {
		t.Fatal(err)
	}
	type kept struct {
		f    *Frozen
		want [2][]string
	}
	var views []kept
	minted := rows
	for b := 0; minted <= pages*dirPageSize; b++ {
		var live []int64
		s.ForEachRecord(func(id int64, _ Record) bool {
			live = append(live, id)
			return true
		})
		r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		deletes := live[:perBatch]
		inserts = inserts[:0]
		for i := range deletes {
			inserts = append(inserts, BatchInsert{
				ID:     s.NextID() + int64(i),
				Values: []string{fmt.Sprintf("b%d-%d", b, i), fmt.Sprint(r.Intn(7))},
			})
		}
		if err := s.ApplyBatch(deletes, inserts, 2); err != nil {
			t.Fatal(err)
		}
		minted += perBatch
		if err := s.CheckConsistency(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		f := s.Freeze()
		if b%10 == 0 {
			views = append(views, kept{f, [2][]string{liveValues(s.Index(0)), liveValues(s.Index(1))}})
		}
	}

	ix := s.Index(0)
	if len(ix.dir) < pages {
		t.Fatalf("minted cids span %d directory pages, want >= %d", len(ix.dir), pages)
	}
	var cids []int32
	ix.ForEachCluster(func(cid int32, _ *Cluster) bool {
		cids = append(cids, cid)
		return true
	})
	if !slices.IsSorted(cids) || len(cids) != rows {
		t.Fatalf("ForEachCluster visited %d cids, sorted %v", len(cids), slices.IsSorted(cids))
	}
	// Exactly the pages holding a live cluster stay allocated.
	holding := map[int32]bool{}
	for _, cid := range cids {
		holding[cid>>dirBits] = true
	}
	allocated := 0
	for p, page := range ix.dir {
		if (page != nil) != holding[int32(p)] {
			t.Fatalf("page %d allocated %v, holds live clusters %v", p, page != nil, holding[int32(p)])
		}
		if page != nil {
			allocated++
		}
	}
	if allocated > len(ix.dir)/10 {
		t.Fatalf("%d of %d directory pages allocated for %d live clusters", allocated, len(ix.dir), len(cids))
	}
	for i, v := range views {
		for a := 0; a < 2; a++ {
			if got := frozenValues(v.f, a); !slices.Equal(got, v.want[a]) {
				t.Fatalf("view %d attr %d values moved:\n got  %v\n want %v", i, a, got, v.want[a])
			}
		}
	}
}

// TestSharedPageKeepsDeadClustersUntilRenewal kills one cluster per batch on
// a directory page of 100 live clusters, freezing the store after every
// batch, so every kill lands on a shared page. A kill that leaves the
// page's pending dead clusters under 1/dirDeadShare of its live ones must
// keep the page's backing array and the dead cluster in its slot; the kill
// that reaches the share must renew the page once: a new array with every
// dead slot cleared and nothing pending. Every kept view must still list
// the values it saw. An unshared page clears the slot in place.
func TestSharedPageKeepsDeadClustersUntilRenewal(t *testing.T) {
	t.Parallel()
	const rows = 100
	s := NewStore(1)
	var inserts []BatchInsert
	for i := 0; i < rows; i++ {
		inserts = append(inserts, BatchInsert{ID: int64(i), Values: []string{fmt.Sprint("v", i)}})
	}
	if err := s.ApplyBatch(nil, inserts, 1); err != nil {
		t.Fatal(err)
	}
	ix := s.Index(0)

	// Not yet frozen: the slot is cleared in place, nothing is pending.
	before := &ix.dir[0][0]
	if err := s.ApplyBatch([]int64{0}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if &ix.dir[0][0] != before || ix.dir[0][0] != nil || ix.dirDead[0] != 0 {
		t.Fatalf("unshared kill: page moved %v, slot %v, pending %d", &ix.dir[0][0] != before, ix.dir[0][0], ix.dirDead[0])
	}

	type kept struct {
		f    *Frozen
		want []string
	}
	views := []kept{{s.Freeze(), liveValues(ix)}}
	renewals := 0
	for id := int64(1); id < rows-1; id++ {
		before := &ix.dir[0][0]
		if err := s.ApplyBatch([]int64{id}, nil, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatalf("kill %d: %v", id, err)
		}
		live, pending := ix.dirN[0], ix.dirDead[0]
		if &ix.dir[0][0] == before {
			// Kept in place: the dead cluster stays, emptied and pending.
			if c := ix.dir[0][id]; c == nil || c.Size() != 0 || pending == 0 || pending*dirDeadShare >= live {
				t.Fatalf("kill %d kept the page: slot %v, %d pending for %d live", id, c, pending, live)
			}
		} else {
			// Renewed: had the dead cluster stayed, the pending ones would
			// have reached the share.
			renewals++
			if ix.dirShared[0] || pending != 0 {
				t.Fatalf("kill %d renewed the page: shared %v, pending %d", id, ix.dirShared[0], pending)
			}
			if dead := countEmpty(views[len(views)-1].f.attrs[0].dir[0]); dead*dirDeadShare < int(live) {
				t.Fatalf("kill %d renewed with %d dead clusters for %d live", id, dead, live)
			}
			for cid := int32(0); cid <= int32(id); cid++ {
				if ix.dir[0][cid] != nil {
					t.Fatalf("kill %d: renewed page keeps dead cluster %d", id, cid)
				}
			}
		}
		views = append(views, kept{s.Freeze(), liveValues(ix)})
	}
	if renewals < 2 {
		t.Fatalf("%d renewals over %d kills, want several", renewals, rows-2)
	}
	for i, v := range views {
		if got := frozenValues(v.f, 0); !slices.Equal(got, v.want) {
			t.Fatalf("view %d values moved:\n got  %v\n want %v", i, got, v.want)
		}
	}
}

// countEmpty counts a directory page's emptied (dead, not cleared) slots.
func countEmpty(page []*Cluster) int {
	n := 0
	for _, c := range page {
		if c != nil && c.Size() == 0 {
			n++
		}
	}
	return n
}

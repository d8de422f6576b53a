package pli

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// liveGroups lists attribute a's clusters of two or more records as the
// live store holds them, in ascending cid order.
func liveGroups(s *Store, a int) [][]int64 {
	var out [][]int64
	s.Index(a).ForEachCluster(func(_ int32, c *Cluster) bool {
		if c.Size() >= 2 {
			out = append(out, slices.Clone(c.IDs))
		}
		return true
	})
	return out
}

// frozenGroups lists what Frozen.ForEachGroup yields for attribute a.
func frozenGroups(f *Frozen, a int, g *GroupBuf) [][]int64 {
	var out [][]int64
	f.ForEachGroup(a, g, func(ids []int64) bool {
		out = append(out, slices.Clone(ids))
		return true
	})
	return out
}

// TestFrozenGroupsMatchLiveClusters freezes a store after every batch of
// random deletes and inserts over small domains, so later batches splice,
// compact and kill the clusters a kept view saw. Each view's ForEachGroup
// must yield exactly the multi-record clusters, member lists and order of
// the live store at its freeze instant, and its NumClusters the live
// cluster counts, however the store moved on. One GroupBuf serves every
// call, across views and attributes of different horizons.
func TestFrozenGroupsMatchLiveClusters(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(9))
	const attrs = 3
	domains := [attrs]int{2, 6, 40}
	s := NewStore(attrs)
	row := func() []string {
		v := make([]string, attrs)
		for a := range v {
			v[a] = fmt.Sprint(r.Intn(domains[a]))
		}
		return v
	}
	type kept struct {
		f        *Frozen
		groups   [attrs][][]int64
		clusters [attrs]int
	}
	var views []kept
	var g GroupBuf
	for b := 0; b < 40; b++ {
		var live []int64
		s.ForEachRecord(func(id int64, _ Record) bool {
			live = append(live, id)
			return true
		})
		r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		deletes := live[:min(len(live), r.Intn(12))]
		var inserts []BatchInsert
		for i := 0; i < r.Intn(15); i++ {
			inserts = append(inserts, BatchInsert{ID: s.NextID() + int64(i), Values: row()})
		}
		if err := s.ApplyBatch(deletes, inserts, 2); err != nil {
			t.Fatal(err)
		}
		k := kept{f: s.Freeze()}
		for a := 0; a < attrs; a++ {
			k.groups[a] = liveGroups(s, a)
			k.clusters[a] = s.NumClusters(a)
		}
		views = append(views, k)
		for i, v := range views {
			for a := 0; a < attrs; a++ {
				if got := frozenGroups(v.f, a, &g); !slices.EqualFunc(got, v.groups[a], slices.Equal[[]int64]) {
					t.Fatalf("batch %d view %d attr %d groups:\n got  %v\n want %v", b, i, a, got, v.groups[a])
				}
				if got := v.f.NumClusters(a); got != v.clusters[a] {
					t.Fatalf("batch %d view %d attr %d: NumClusters %d, want %d", b, i, a, got, v.clusters[a])
				}
			}
		}
	}
}

// TestFrozenGroupsStopEarly checks that ForEachGroup stops when fn returns
// false.
func TestFrozenGroupsStopEarly(t *testing.T) {
	s := NewStore(1)
	for i := 0; i < 6; i++ {
		if _, err := s.Insert([]string{fmt.Sprint(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	s.Freeze().ForEachGroup(0, &GroupBuf{}, func([]int64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("fn called %d times after returning false, want 1", calls)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dynfd/internal/dataset"
	"dynfd/internal/stream"
)

// TestAgreeBuildBoundedUnderSkew pins the agree-mask index's build bound
// with counters, not wall time. Two thousand inserts land in two-value
// columns, so the pivot of every wide candidate over them has two huge
// clusters: building it would compare about a million record pairs,
// while the pruned kernel visits a few thousand members per validation.
// The pairs the index compares must stay within twice the pivot-cluster
// members the kernel visits for the batch's validations, on the skewed
// batch and on a small batch after it.
func TestAgreeBuildBoundedUnderSkew(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	next := 0
	row := func() []string {
		a, b := r.Intn(2), r.Intn(2)
		next++
		// c is a function of {a, b}; e is noise; k is a key.
		return []string{fmt.Sprint(a), fmt.Sprint(b), fmt.Sprint(a ^ b), fmt.Sprint(r.Intn(3)), fmt.Sprint(next)}
	}
	rel := dataset.New("skew", []string{"a", "b", "c", "e", "k"})
	for i := 0; i < 1000; i++ {
		if err := rel.Append(row()); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Bootstrap(rel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2000, 20} {
		var batch stream.Batch
		for i := 0; i < n; i++ {
			batch.Changes = append(batch.Changes, stream.Change{Kind: stream.Insert, Values: row()})
		}
		minNew := e.store.NextID()
		before := e.Stats()
		if _, err := e.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		c := e.agree.Counters()
		if pairs := e.Stats().AgreePairs - before.AgreePairs; pairs != c.Pairs {
			t.Fatalf("%d inserts: Stats.AgreePairs grew by %d, the index compared %d pairs", n, pairs, c.Pairs)
		}
		if c.KernelVisits == 0 {
			t.Fatalf("%d inserts: no multi-attribute validation reached the index", n)
		}
		if c.Pairs > 2*c.KernelVisits {
			t.Fatalf("%d inserts: index compared %d pairs, more than twice the %d kernel member visits", n, c.Pairs, c.KernelVisits)
		}
		// The build cost of pivot a: every new record against its whole
		// a-cluster.
		build := 0
		for _, id := range e.store.AppendLiveFrom(nil, minNew) {
			build += e.store.Index(0).Cluster(e.store.Rec(id)[0]).Size()
		}
		t.Logf("%d inserts: %d pairs compared, %d kernel visits, building pivot a would cost %d", n, c.Pairs, c.KernelVisits, build)
		if n == 2000 && build <= 2*c.KernelVisits {
			t.Fatalf("the skewed batch is not skewed: building pivot a costs %d, kernel visits %d", build, c.KernelVisits)
		}
	}
}

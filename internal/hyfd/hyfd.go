// Package hyfd implements the hybrid static FD discovery algorithm HyFD
// (Papenbrock & Naumann, SIGMOD 2016 — paper reference [13]). HyFD
// interleaves a row-based sampling phase, which compares promising record
// pairs to collect non-FDs cheaply, with a column-based validation phase,
// which verifies the induced FD candidates level-wise against position
// list indexes. DynFD uses HyFD to bootstrap its data structures and
// positive cover (paper §2), and the evaluation compares repeated HyFD
// executions against DynFD's incremental maintenance (paper §6.4).
//
// This implementation is exact: sampling only accelerates convergence; the
// level-wise validation pass is the authority for every reported FD.
package hyfd

import (
	"sort"

	"dynfd/internal/attrset"
	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/induct"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
	"dynfd/internal/validate"
)

// efficiencyThreshold is the switch-over ratio between the two phases.
// The paper ([13], §4 of DynFD) found 10% to work well across datasets.
const efficiencyThreshold = 0.1

// Result carries the discovery output together with the populated runtime
// structures, so that DynFD can adopt them without rebuilding (paper §3.2:
// "we can simply obtain all three data structures directly from that
// algorithm").
type Result struct {
	// Store holds the Plis, inverted indexes, compressed records, and the
	// record hash index for the profiled relation.
	Store *pli.Store
	// FDs is the positive cover: all minimal, non-trivial FDs.
	FDs *lattice.Cover
}

// Discover profiles the relation and returns the populated structures plus
// the positive cover. It loads the store serially (see Load).
func Discover(rel *dataset.Relation) (*Result, error) {
	store, err := Load(rel, 1)
	if err != nil {
		return nil, err
	}
	return DiscoverStore(store), nil
}

// Load validates the relation and bulk-loads it into a fresh Pli store
// (pli.Store.LoadRows over at most workers goroutines, one per attribute):
// row i becomes surrogate id i.
func Load(rel *dataset.Relation, workers int) (*pli.Store, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	ids := make([]int64, len(rel.Rows))
	for i := range ids {
		ids[i] = int64(i)
	}
	store := pli.NewStore(rel.NumColumns())
	if err := store.LoadRows(ids, rel.Rows, workers); err != nil {
		return nil, err
	}
	return store, nil
}

// DiscoverFDs is a convenience wrapper returning only the minimal FDs.
func DiscoverFDs(rel *dataset.Relation) ([]fd.FD, error) {
	res, err := Discover(rel)
	if err != nil {
		return nil, err
	}
	return res.FDs.All(), nil
}

// DiscoverStore runs HyFD over an already-populated Pli store. The store
// is not modified.
func DiscoverStore(store *pli.Store) *Result {
	numAttrs := store.NumAttrs()
	s := &sampler{store: store, neg: lattice.NewFlipped(numAttrs), numAttrs: numAttrs}
	s.init()
	// One warm validation scratch serves the whole (serial) discovery run.
	sc := validate.NewScratch()

	// Phase 1: sampling until the comparisons stop paying off.
	s.round()
	for s.lastEfficiency >= efficiencyThreshold && s.moreWork() {
		s.round()
	}

	// Phase 2: induction of candidate FDs from the sampled non-FDs.
	fds := induct.BuildPositive(s.neg.All(), numAttrs)

	// Phase 3: level-wise validation; invalid candidates are specialized
	// using their violation's full agree set. If a level produces too many
	// invalid candidates, another sampling round runs and its new non-FDs
	// are folded in before validation continues (hybrid switching).
	for level := 0; level <= numAttrs; level++ {
		candidates := fds.Level(level)
		if len(candidates) == 0 {
			continue
		}
		invalid := 0
		for _, cand := range candidates {
			if !fds.Contains(cand.Lhs, cand.Rhs) {
				continue // removed by an earlier specialization in this level
			}
			valid, w := sc.FD(store, cand.Lhs, cand.Rhs, validate.NoPruning)
			if valid {
				continue
			}
			invalid++
			ra, _ := store.Record(w.A)
			rb, _ := store.Record(w.B)
			agree := validate.AgreeSet(ra, rb)
			for rhs := 0; rhs < numAttrs; rhs++ {
				if agree.Contains(rhs) {
					continue
				}
				induct.AddMaximalNonFD(s.neg, agree, rhs)
				induct.Specialize(fds, agree, rhs, numAttrs)
			}
		}
		if float64(invalid) > efficiencyThreshold*float64(len(candidates)) && s.moreWork() {
			before := s.neg.All()
			s.round()
			after := s.neg.All()
			for _, nf := range diffNew(before, after) {
				induct.Specialize(fds, nf.Lhs, nf.Rhs, numAttrs)
			}
		}
	}
	return &Result{Store: store, FDs: fds}
}

// diffNew returns the members of after that are not in before.
func diffNew(before, after []fd.FD) []fd.FD {
	seen := make(map[fd.FD]bool, len(before))
	for _, f := range before {
		seen[f] = true
	}
	var out []fd.FD
	for _, f := range after {
		if !seen[f] {
			out = append(out, f)
		}
	}
	return out
}

// sampler implements HyFD's progressive record-pair comparison. For every
// attribute it materializes the clusters (size >= 2) with their records
// sorted lexicographically by compressed record, so that similar records
// are neighbours. Round w compares every record to its w-th neighbour
// within each cluster; growing w progressively widens the comparison
// window.
type sampler struct {
	store    *pli.Store
	neg      *lattice.Flipped
	numAttrs int

	clusters       [][][]int64 // per attribute: list of sorted clusters
	window         int
	lastEfficiency float64
	maxWindow      int
	seenAgree      map[attrset.Set]bool // agree sets already folded in
}

func (s *sampler) init() {
	s.seenAgree = make(map[attrset.Set]bool)
	s.clusters = make([][][]int64, s.numAttrs)
	s.maxWindow = 1
	for a := 0; a < s.numAttrs; a++ {
		ix := s.store.Index(a)
		ix.ForEachCluster(func(_ int32, c *pli.Cluster) bool {
			if c.Size() < 2 {
				return true
			}
			ids := append([]int64(nil), c.IDs...)
			sort.Slice(ids, func(i, j int) bool {
				ri, _ := s.store.Record(ids[i])
				rj, _ := s.store.Record(ids[j])
				return lessRecord(ri, rj)
			})
			s.clusters[a] = append(s.clusters[a], ids)
			if len(ids) > s.maxWindow {
				s.maxWindow = len(ids)
			}
			return true
		})
	}
	s.window = 0
}

func lessRecord(a, b pli.Record) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// moreWork reports whether wider windows can still produce comparisons.
func (s *sampler) moreWork() bool { return s.window < s.maxWindow-1 }

// round compares all pairs at the next window distance and records the
// efficiency (new maximal non-FDs per comparison).
func (s *sampler) round() {
	s.window++
	comparisons, news := 0, 0
	for a := 0; a < s.numAttrs; a++ {
		for _, ids := range s.clusters[a] {
			for i := 0; i+s.window < len(ids); i++ {
				ra, _ := s.store.Record(ids[i])
				rb, _ := s.store.Record(ids[i+s.window])
				agree := validate.AgreeSet(ra, rb)
				comparisons++
				if s.seenAgree[agree] {
					continue
				}
				s.seenAgree[agree] = true
				for rhs := 0; rhs < s.numAttrs; rhs++ {
					if agree.Contains(rhs) {
						continue
					}
					if induct.AddMaximalNonFD(s.neg, agree, rhs) {
						news++
					}
				}
			}
		}
	}
	if comparisons == 0 {
		s.lastEfficiency = 0
		return
	}
	s.lastEfficiency = float64(news) / float64(comparisons)
}

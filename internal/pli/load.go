package pli

import (
	"fmt"
	"math"
	"math/bits"

	"dynfd/internal/fanout"
)

// Coded is a relation in the dictionary-coded form of §3.1, the input of
// Store.Load: IDs holds the record ids in strictly ascending order;
// Codes[a][i] is the code of record IDs[i]'s value in attribute a; and
// Dicts[a][c] is the value of code c, numbered in order of first
// occurrence, so code c becomes cluster id c.
type Coded struct {
	IDs   []int64
	Codes [][]int32
	Dicts [][]string
}

// Load bulk-loads a coded relation into an empty store (DESIGN.md §10):
// the store ApplyBatch would build from empty, without hashing a value per
// record or growing a cluster per append. Per attribute, a presized
// inverted index is filled from the dictionary alone, a count pass sizes
// every cluster's id slice up front, and a fill pass appends the ids and
// copies the codes into the arena's column — a code is the cluster id.
// Attributes fan out across at most GOMAXPROCS goroutines (fanout.ForEach);
// the result does not depend on GOMAXPROCS. NextID ends one past the last
// id.
//
// Load refuses a non-empty store, ids out of order, a relation of the
// wrong shape, a dictionary that repeats a value, and codes that are not
// in first-occurrence order or leave a dictionary value unused. A failure
// found while loading an attribute leaves the store partly loaded; it must
// then be discarded.
func (s *Store) Load(rel *Coded) error {
	if len(rel.Codes) != s.numAttrs || len(rel.Dicts) != s.numAttrs {
		return fmt.Errorf("pli: load has %d code columns and %d dictionaries, schema has %d attributes",
			len(rel.Codes), len(rel.Dicts), s.numAttrs)
	}
	for a, codes := range rel.Codes {
		if len(codes) != len(rel.IDs) {
			return fmt.Errorf("pli: load attribute %d has %d codes for %d records", a, len(codes), len(rel.IDs))
		}
	}
	if err := s.loadIDs(rel.IDs); err != nil {
		return err
	}
	return s.loadAttrs(func(a int) error {
		inv, err := dictIndex(rel.Dicts[a])
		if err != nil {
			return fmt.Errorf("pli: load attribute %d: %w", a, err)
		}
		return s.loadAttr(a, rel.IDs, rel.Codes[a], rel.Dicts[a], inv)
	})
}

// LoadRows is Load's front end for uncoded tuples: rows[i] is the record
// with id ids[i]. Each attribute is coded through the map that then
// becomes its inverted index, so every value is hashed once. The map is
// presized to the row count so that it never grows; when fewer than half
// the rows hold distinct values it is rebuilt at the dictionary's size,
// hashing only those values again, so the index does not stay oversized.
func (s *Store) LoadRows(ids []int64, rows [][]string) error {
	if len(ids) != len(rows) {
		return fmt.Errorf("pli: load has %d ids for %d rows", len(ids), len(rows))
	}
	for i, row := range rows {
		if len(row) != s.numAttrs {
			return fmt.Errorf("pli: load row %d has %d values, schema has %d attributes", i, len(row), s.numAttrs)
		}
	}
	if err := s.loadIDs(ids); err != nil {
		return err
	}
	return s.loadAttrs(func(a int) error {
		inv := make(map[string]int32, len(rows))
		var dict []string
		codes := make([]int32, len(rows))
		for i, row := range rows {
			c, ok := inv[row[a]]
			if !ok {
				c = int32(len(dict))
				inv[row[a]] = c
				dict = append(dict, row[a])
			}
			codes[i] = c
		}
		if 2*len(dict) < len(rows) {
			inv, _ = dictIndex(dict)
		}
		return s.loadAttr(a, ids, codes, dict, inv)
	})
}

// loadIDs checks that the store is empty and the ids strictly ascending,
// then marks them live, allocating their arena pages.
func (s *Store) loadIDs(ids []int64) error {
	if s.staged != nil {
		return errStagedOpen
	}
	if s.nextID != 0 {
		return fmt.Errorf("pli: load into a store that is not empty (next id %d)", s.nextID)
	}
	prev := int64(-1)
	for i, id := range ids {
		if id <= prev {
			return fmt.Errorf("pli: load record %d id %d not ascending (next %d)", i, id, prev+1)
		}
		prev = id
	}
	for _, id := range ids {
		s.setLive(id)
	}
	s.nextID = prev + 1
	return nil
}

// loadAttrs runs load for every attribute over fanout.ForEach and returns
// the first failure in attribute order, so the error does not depend on
// GOMAXPROCS either.
func (s *Store) loadAttrs(load func(a int) error) error {
	errs := make([]error, s.numAttrs)
	if err := fanout.ForEach(s.numAttrs, func(a int) { errs[a] = load(a) }); err != nil {
		return fmt.Errorf("pli: loading: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dictIndex returns the inverted index of a dictionary, refusing one that
// repeats a value.
func dictIndex(dict []string) (map[string]int32, error) {
	if len(dict) > math.MaxInt32 {
		return nil, fmt.Errorf("dictionary of %d values", len(dict))
	}
	inv := make(map[string]int32, len(dict))
	for c, v := range dict {
		inv[v] = int32(c)
		if len(inv) != c+1 {
			return nil, fmt.Errorf("dictionary repeats value %q", v)
		}
	}
	return inv, nil
}

// singleton is a cluster of one record together with the storage of its
// id; growing the cluster moves its ids out.
type singleton struct {
	Cluster
	id [1]int64
}

// loadAttr builds attribute a's Pli from the codes of the records ids,
// whose values dict lists and inv inverts: the cluster of code c holds the
// records coded c and sits at cid c. It writes only shard a and the
// records' column a of the arena.
func (s *Store) loadAttr(a int, ids []int64, codes []int32, dict []string, inv map[string]int32) error {
	sizes := make([]int32, len(dict))
	var next int32 // codes below next have occurred
	for i, c := range codes {
		if c == next && int(c) < len(dict) {
			next++
		} else if c < 0 || c >= next {
			return fmt.Errorf("pli: load attribute %d record %d: code %d out of order (%d of %d values seen)",
				a, ids[i], c, next, len(dict))
		}
		sizes[c]++
	}
	if int(next) != len(dict) {
		return fmt.Errorf("pli: load attribute %d: codes use %d of %d dictionary values", a, next, len(dict))
	}
	ix := s.shards[a].ix
	pages := (len(dict) + dirPageSize - 1) >> dirBits
	ix.dir = make([][]*Cluster, pages)
	ix.dirN = make([]int32, pages)
	ix.dirShared = make([]bool, pages)
	ix.dirDead = make([]int32, pages)
	for p := range ix.dir {
		ix.dir[p] = make([]*Cluster, dirPageSize)
		ix.dirN[p] = int32(min(dirPageSize, len(dict)-p<<dirBits))
	}
	for c, v := range dict {
		var cl *Cluster
		if sizes[c] == 1 {
			// A value held by one record gets a cluster that shares one
			// allocation with its id. Such clusters are 79–81 % of those in
			// the artist, claims and disease relations the ledger loads;
			// sharing saves an allocation each (BENCH_setup.json →
			// singleton_check).
			one := &singleton{Cluster: Cluster{Value: v}}
			one.IDs = one.id[:0]
			cl = &one.Cluster
		} else {
			// Below 256 ids, the capacity one-at-a-time appends would have
			// reached (a power of two): a loaded store that then takes
			// inserts grows like one built by inserts, not by a
			// reallocation of nearly every cluster it appends to.
			n := int(sizes[c])
			if n < 256 {
				n = 1 << bits.Len(uint(n-1))
			}
			cl = &Cluster{Value: v, IDs: make([]int64, 0, n)}
		}
		ix.dir[c>>dirBits][c&dirMask] = cl
	}
	ix.inverted = inv
	ix.next = int32(len(dict))
	for i, c := range codes {
		id := ids[i]
		cl := ix.dir[c>>dirBits][c&dirMask]
		cl.IDs = append(cl.IDs, id)
		s.pages[id>>pageBits][int(id&pageMask)*s.numAttrs+a] = c
	}
	return nil
}

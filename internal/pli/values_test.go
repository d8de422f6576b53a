package pli

import (
	"math/rand"
	"strconv"
	"testing"
)

// valueModel drives a valueIndex and a map[string]int32 through the same
// inserts, removes and lookups and fails on the first disagreement. Values
// live by cid in vals, as a dictionary under construction keeps them.
type valueModel struct {
	t    *testing.T
	tab  valueIndex
	vals []string
	ref  map[string]int32

	// What the run reached: table growths, entries sitting before their
	// home slot (their probe chain wrapped around the table's end), and
	// removes that shifted an entry back.
	grows, wrapped, shifts int
}

func newValueModel(t *testing.T) *valueModel {
	return &valueModel{t: t, tab: newValueIndex(), ref: map[string]int32{}}
}

// step looks v up in both, then inserts it (op 0), removes it (op 1) or
// only looks (op 2).
func (m *valueModel) step(op int, v string) {
	m.t.Helper()
	h := m.tab.hash(v)
	cid, slot, ok := m.tab.find(v, h, func(c int32) string { return m.vals[c] })
	want, wantOK := m.ref[v]
	if ok != wantOK || ok && cid != want {
		m.t.Fatalf("find(%q) = %d, %v; map has %d, %v", v, cid, ok, want, wantOK)
	}
	switch op {
	case 0:
		if !ok {
			size := len(m.tab.slots)
			c := int32(len(m.vals))
			m.vals = append(m.vals, v)
			m.tab.put(slot, c, h)
			m.ref[v] = c
			if len(m.tab.slots) != size {
				m.grows++
			}
		}
	case 1:
		if ok {
			before := append([]uint64(nil), m.tab.slots...)
			m.tab.remove(cid, h)
			delete(m.ref, v)
			changed := 0
			for i := range before {
				if before[i] != m.tab.slots[i] {
					changed++
				}
			}
			if changed > 1 {
				m.shifts++
			}
		}
	}
}

// check requires the table to hold exactly the map's entries, each found
// by a lookup, within 3/4 load.
func (m *valueModel) check() {
	m.t.Helper()
	if m.tab.n != len(m.ref) {
		m.t.Fatalf("table counts %d values, map %d", m.tab.n, len(m.ref))
	}
	if 4*m.tab.n > 3*len(m.tab.slots) {
		m.t.Fatalf("table holds %d values in %d slots, over 3/4 load", m.tab.n, len(m.tab.slots))
	}
	for v, want := range m.ref {
		if cid, _, ok := m.tab.find(v, m.tab.hash(v), func(c int32) string { return m.vals[c] }); !ok || cid != want {
			m.t.Fatalf("find(%q) = %d, %v; map has %d", v, cid, ok, want)
		}
	}
	mask := len(m.tab.slots) - 1
	for i, s := range m.tab.slots {
		if s != 0 && i < int(uint32(s))&mask {
			m.wrapped++
		}
	}
}

// FuzzValueIndex checks the inverted index's table against a map over
// arbitrary insert, remove and lookup sequences: each pair of bytes is an
// op and one of 256 values. The table starts unallocated, so a run passes
// through its first allocation and its growths, and a small table's probe
// chains wrap around its end and shift back on removes.
func FuzzValueIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 2, 2, 3})
	seed := make([]byte, 0, 400)
	r := rand.New(rand.NewSource(1))
	for range 200 {
		seed = append(seed, byte(r.Intn(3)), byte(r.Intn(24)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newValueModel(t)
		for i := 0; i+1 < len(ops); i += 2 {
			m.step(int(ops[i]%3), strconv.Itoa(int(ops[i+1])))
			if i%64 == 0 {
				m.check()
			}
		}
		m.check()
	})
}

// TestValueIndexChurn runs the fuzz model over a long fixed churn and
// requires it to reach growth, wrapped probe chains and backward shifts.
func TestValueIndexChurn(t *testing.T) {
	t.Parallel()
	m := newValueModel(t)
	r := rand.New(rand.NewSource(7))
	for i := range 20000 {
		// Grow the live set, then churn it at a steady size.
		op := r.Intn(3)
		if i < 2000 && op == 1 {
			op = 0
		}
		m.step(op, strconv.Itoa(r.Intn(400)))
		m.check()
	}
	if m.grows < 3 || m.wrapped == 0 || m.shifts == 0 {
		t.Errorf("churn reached %d growths, %d wrapped entries, %d backward shifts; want all", m.grows, m.wrapped, m.shifts)
	}
}

// TestValueIndexSeeds: every index draws its own hash seed, as every Go map
// does, so two stores file their values under different hashes.
func TestValueIndexSeeds(t *testing.T) {
	t.Parallel()
	a, b := NewStore(2), NewStore(2)
	if a.Index(0).values.seed == a.Index(1).values.seed || a.Index(0).values.seed == b.Index(0).values.seed {
		t.Error("two indexes share a hash seed")
	}
}

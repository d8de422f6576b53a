package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dynfd"
	"dynfd/internal/datagen"
	"dynfd/internal/dataset"
	"dynfd/internal/stream"
)

// workload is one traffic mix against the service stack. Every workload
// runs the same stack — primary, HTTP API, replication server, one
// follower — with one writer load and reads, so every end-to-end metric
// exists on every workload; what differs is which layer does most of the
// work (README.md, "Workloads").
type workload struct {
	name    string
	dataset string
	// rows multiplies the dataset's initial row count (artist runs ×0.2,
	// disease ×4).
	rows float64
	// batch is the number of changes per POST …/batch request.
	batch int
	// writers is the number of concurrent writer goroutines; writeRate is
	// their shared open-loop rate in batches/s, 0 for a closed loop (one
	// writer that waits for each ack before sending the next batch).
	writers   int
	writeRate float64
	// readRate is the open-loop reader's rate in requests/s. At 0 the
	// closed-loop writer reads instead, once after each batch it has sent
	// (and, with awaitReplica, seen on the follower).
	readRate float64
	// historyRate sizes the history: a run of s seconds generates
	// s*historyRate batches. A closed loop that sends them all ends its
	// measured phase early. Artist's rate is low enough that a slow
	// stretch of the machine still sends them all, so every run does the
	// same work, and it puts every run between the second and third
	// automatic checkpoint (128 and 192 batches), so checkpoint writes
	// never swing disk_write_bytes_per_change.
	historyRate float64
	// orderFree marks an insert-only history: concurrent writers may apply
	// batches in any order and the final relation is still the initial
	// rows plus every insert.
	orderFree bool
	// awaitReplica makes the closed-loop writer also wait, after each ack,
	// until the follower serves the batch, so the primary's and the
	// follower's engines never run at once and compete for the CPUs.
	awaitReplica bool
	// setups is the number of timed set-ups per untraced run; setup_s is
	// their median. Cheap set-ups are repeated more, so that each run
	// spends about a second or more setting up and the median steadies.
	setups int
}

// workloads are the benchmark's traffic mixes; README.md gives the layer
// each one loads and the reason for its rates.
var workloads = []workload{
	// Core-bound: big batches on a wide relation, one closed-loop client
	// that writes, waits for the follower, and reads.
	{
		name: "artist-ingest", dataset: "artist", rows: 0.2, batch: 100,
		writers: 1, historyRate: 6, awaitReplica: true, setups: 9,
	},
	// Service-bound: tiny insert batches from two open-loop writers.
	{
		name: "claims-commit", dataset: "claims", rows: 1, batch: 10,
		writers: 2, writeRate: 50, readRate: 50, historyRate: 50, orderFree: true, setups: 41,
	},
	// Results-bound: update-heavy writes under a heavy read load.
	{
		name: "disease-serve", dataset: "disease", rows: 4, batch: 20,
		writers: 1, writeRate: 20, readRate: 200, historyRate: 20, setups: 11,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tenantName is the one tenant every workload writes to.
const tenantName = "ledger"

// inputs is everything a workload run sends, generated from the seed and
// encoded before any timing starts.
type inputs struct {
	columns []string
	initial [][]string
	// changes is the generated history; batches[i] covers
	// changes[i*batch:(i+1)*batch].
	changes []stream.Change
	batches [][]dynfd.Change
	bodies  [][]byte
	// wantIDs[i] is the ids the engine must mint for batch i's inserts and
	// updates when batches are applied in order (datagen's id contract).
	wantIDs [][]int64
	reads   []string // rotating read paths
}

// generate synthesizes a workload's inputs. The relation and its history
// come from datagen's fixed profile for the dataset — the stand-in for
// the paper's fixed datasets, whose FD landscape (and so the engine's
// work per batch) differs several-fold between datagen seeds. The seed
// renames the values (see relabel): every seed sends different bytes,
// but the records agree and differ on the same columns under every
// seed, so the engine does the same work. scale shrinks the initial
// relation (tests use small values); seconds and the workload's
// historyRate size the history.
func generate(w workload, seed int64, seconds, scale float64) (*inputs, error) {
	p, err := datagen.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	p = p.Scaled(w.rows * scale)
	p.Changes = w.batch * int(math.Ceil(seconds*w.historyRate))
	d, err := datagen.Generate(p)
	if err != nil {
		return nil, err
	}
	in := &inputs{columns: d.Relation.Columns}
	in.initial, in.changes = relabel(d.Relation.Rows, d.Changes, len(in.columns), seed)
	nextID := int64(len(in.initial))
	for start := 0; start+w.batch <= len(in.changes); start += w.batch {
		part := in.changes[start : start+w.batch]
		batch := make([]dynfd.Change, len(part))
		wire := make([]wireChange, len(part))
		var ids []int64
		for i, c := range part {
			switch c.Kind {
			case stream.Insert:
				batch[i] = dynfd.Insert(c.Values...)
				wire[i] = wireChange{Op: "insert", Values: c.Values}
			case stream.Delete:
				id := c.ID
				batch[i] = dynfd.Delete(id)
				wire[i] = wireChange{Op: "delete", ID: &id}
			case stream.Update:
				id := c.ID
				batch[i] = dynfd.Update(id, c.Values...)
				wire[i] = wireChange{Op: "update", ID: &id, Values: c.Values}
			}
			if c.Kind != stream.Delete {
				ids = append(ids, nextID)
				nextID++
			}
		}
		body, err := json.Marshal(wireBatch{Changes: wire})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, batch)
		in.bodies = append(in.bodies, body)
		in.wantIDs = append(in.wantIDs, ids)
	}
	c := in.columns
	base := "/v1/tenants/" + tenantName
	in.reads = []string{
		base + "/fds",
		base + "/keys?columns=" + c[0] + "," + c[1],
		base + "/violations?lhs=" + c[1] + "&rhs=" + c[2] + "&max=10",
	}
	return in, nil
}

// replay applies an in-order history to a relation whose records carry
// ids 0..len(rows)-1, minting ids the way the engine and datagen do, and
// returns the live records.
func replay(rows [][]string, changes []stream.Change) map[int64][]string {
	live := make(map[int64][]string, len(rows))
	for i, row := range rows {
		live[int64(i)] = row
	}
	next := int64(len(rows))
	for _, c := range changes {
		switch c.Kind {
		case stream.Insert:
			live[next] = c.Values
			next++
		case stream.Delete:
			delete(live, c.ID)
		case stream.Update:
			delete(live, c.ID)
			live[next] = c.Values
			next++
		}
	}
	return live
}

// sortedIDs returns the live ids in ascending order.
func sortedIDs(live map[int64][]string) []int64 {
	ids := make([]int64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// relabel returns copies of the relation's rows and of the history in
// which every column's values are renamed by a permutation, drawn from
// the seed, of that column's distinct values. Equal values stay equal and
// distinct ones distinct, so every seed's relation and history hold the
// same dependencies, clusters and violations.
func relabel(rows [][]string, changes []stream.Change, columns int, seed int64) ([][]string, []stream.Change) {
	rng := rand.New(rand.NewSource(seed))
	rename := make([]map[string]string, columns)
	for c := range rename {
		var distinct []string
		index := make(map[string]int)
		note := func(v string) {
			if _, ok := index[v]; !ok {
				index[v] = len(distinct)
				distinct = append(distinct, v)
			}
		}
		for _, row := range rows {
			note(row[c])
		}
		for _, ch := range changes {
			if ch.Kind != stream.Delete {
				note(ch.Values[c])
			}
		}
		perm := rng.Perm(len(distinct))
		rename[c] = make(map[string]string, len(distinct))
		for i, v := range distinct {
			rename[c][v] = distinct[perm[i]]
		}
	}
	renamed := func(row []string) []string {
		out := make([]string, len(row))
		for c, v := range row {
			out[c] = rename[c][v]
		}
		return out
	}
	outRows := make([][]string, len(rows))
	for i, row := range rows {
		outRows[i] = renamed(row)
	}
	outChanges := make([]stream.Change, len(changes))
	for i, ch := range changes {
		if ch.Kind != stream.Delete {
			ch.Values = renamed(ch.Values)
		}
		outChanges[i] = ch
	}
	return outRows, outChanges
}

// wireChange and wireBatch mirror the JSON body of POST …/batch.
type wireChange struct {
	Op     string   `json:"op"`
	ID     *int64   `json:"id,omitempty"`
	Values []string `json:"values,omitempty"`
}

type wireBatch struct {
	Changes []wireChange `json:"changes"`
}

// finalRelation rebuilds the relation the service must hold after the
// given batches were acknowledged. An in-order history replays the first
// len(applied) batches with datagen's id minting; an order-free
// (insert-only) history is the initial rows plus every applied insert.
func (in *inputs) finalRelation(w workload, applied []int) (*dataset.Relation, error) {
	rel := dataset.New("final", in.columns)
	if w.orderFree {
		for _, row := range in.initial {
			if err := rel.Append(row); err != nil {
				return nil, err
			}
		}
		for _, b := range applied {
			for _, c := range in.changes[b*w.batch : (b+1)*w.batch] {
				if c.Kind != stream.Insert {
					return nil, fmt.Errorf("order-free workload %s has a %v change", w.name, c.Kind)
				}
				if err := rel.Append(c.Values); err != nil {
					return nil, err
				}
			}
		}
		return rel, nil
	}
	for i, b := range applied {
		if b != i {
			return nil, fmt.Errorf("batch %d acknowledged out of order (position %d)", b, i)
		}
	}
	live := replay(in.initial, in.changes[:len(applied)*w.batch])
	for _, id := range sortedIDs(live) {
		if err := rel.Append(live[id]); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

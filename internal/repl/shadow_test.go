package repl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dynfd"
	"dynfd/internal/attrset"
	"dynfd/internal/core"
	"dynfd/internal/durable"
	"dynfd/internal/fd"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// witnesses is a negative cover's witness annotation, keyed by slot.
type witnesses map[string][2]int64

func witnessesOf(s *core.Snapshot) witnesses {
	w := witnesses{}
	for _, nf := range s.NonFDs {
		if nf.HasPair {
			w[fmt.Sprint(nf.Lhs, "->", nf.Rhs)] = nf.Witness
		}
	}
	return w
}

func (w witnesses) equal(o witnesses) bool {
	if len(w) != len(o) {
		return false
	}
	for k, v := range w {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// stateOf renders a snapshot like captureEng renders an engine.
func stateOf(s *core.Snapshot) engState {
	fds := make([]fd.FD, len(s.FDs))
	for i, f := range s.FDs {
		fds[i] = fd.FD{Lhs: attrset.Of(f.Lhs...), Rhs: f.Rhs}
	}
	nonFDs := make([]fd.FD, len(s.NonFDs))
	for i, f := range s.NonFDs {
		nonFDs[i] = fd.FD{Lhs: attrset.Of(f.Lhs...), Rhs: f.Rhs}
	}
	return engState{fds: fmt.Sprint(fds), nonFDs: fmt.Sprint(nonFDs), records: len(s.Records)}
}

// witnessLog records a primary's witness annotation after every batch it
// acknowledged, by sequence. A primary that recovers from a crash records
// its recovered state too: WAL replay may pick other witnesses than the
// incarnation that first applied those batches, and every later frame is
// relative to the recovered ones.
type witnessLog struct {
	mu    sync.Mutex
	bySeq map[uint64]witnesses
}

func newWitnessLog() *witnessLog { return &witnessLog{bySeq: map[uint64]witnesses{}} }

func (l *witnessLog) record(seq uint64, s *core.Snapshot) {
	l.mu.Lock()
	l.bySeq[seq] = witnessesOf(s)
	l.mu.Unlock()
}

func (l *witnessLog) at(seq uint64) (witnesses, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	w, ok := l.bySeq[seq]
	return w, ok
}

// recordHistory maps every record id a change stream mints — from 0, in
// batch order, the engine's id contract — to its values, so witnesses can
// be checked against records that have since died.
func recordHistory(batches []stream.Batch) map[int64][]string {
	rows := map[int64][]string{}
	var next int64
	for _, b := range batches {
		for _, c := range b.Changes {
			if c.Kind != stream.Delete {
				rows[next] = c.Values
				next++
			}
		}
	}
	return rows
}

// streamBatches converts public change batches to the stream codec's.
func streamBatches(batches [][]dynfd.Change) []stream.Batch {
	kinds := map[dynfd.ChangeKind]stream.Kind{
		dynfd.KindInsert: stream.Insert, dynfd.KindDelete: stream.Delete, dynfd.KindUpdate: stream.Update,
	}
	out := make([]stream.Batch, len(batches))
	for i, b := range batches {
		for _, c := range b {
			out[i].Changes = append(out[i].Changes, stream.Change{Kind: kinds[c.Kind], ID: c.ID, Values: c.Values})
		}
	}
	return out
}

// shadowCounts aggregates what the shadow checks saw, across every
// follower incarnation that shares it.
type shadowCounts struct {
	frames        atomic.Int64 // batch frames applied
	patched       atomic.Int64 // of those, applied by patching the cover delta
	witnessChecks atomic.Int64 // frames whose witnesses were compared with the primary's
}

// shadowReplica is the cover-delta equivalence check. It wraps a
// follower's replica and feeds every batch frame the follower applies to a
// shadow engine as well, through the full ApplyBatch sweeps. After every
// frame the follower's covers must equal the shadow's (and the oracle's,
// when one is given), every follower witness must be a violating pair of
// records of the replicated history, live or dead, and — while the
// follower's witnesses equaled the primary's before the frame and the
// follower patched the frame from its delta — they must equal the
// primary's after it. An install rebuilds the shadow from the follower's
// new state at the next frame.
type shadowReplica struct {
	t       testing.TB
	rep     repl.Replica
	state   func() (*core.Snapshot, int)      // follower engine state and CoverPatches
	rows    map[int64][]string                // recordHistory of the replicated stream
	primary *witnessLog                       // nil: no witness comparison
	oracle  func(seq uint64) (engState, bool) // expected state per sequence (optional)
	counts  *shadowCounts

	shadow  *core.Engine
	patches int  // follower's CoverPatches at Seq()
	matched bool // follower witnesses equaled the primary's at Seq()
}

func (r *shadowReplica) Seq() uint64   { return r.rep.Seq() }
func (r *shadowReplica) Epoch() uint64 { return r.rep.Epoch() }

func (r *shadowReplica) InstallReplicaCheckpoint(blob []byte) error {
	r.shadow = nil
	return r.rep.InstallReplicaCheckpoint(blob)
}

func (r *shadowReplica) ApplyReplicated(seq uint64, payload []byte) error {
	if r.shadow == nil {
		snap, patches := r.state()
		eng, err := core.Restore(snap)
		if err != nil {
			r.t.Errorf("shadow: restoring follower state at seq %d: %v", seq-1, err)
			return err
		}
		r.shadow, r.patches = eng, patches
		w, ok := r.primary.at(seq - 1)
		r.matched = ok && w.equal(witnessesOf(snap))
	}
	if err := r.rep.ApplyReplicated(seq, payload); err != nil {
		r.shadow = nil
		return err
	}
	// A promotion record moves no cover; only batches go to the shadow.
	control := wal.IsControl(payload)
	if !control {
		record, _, _ := wal.SplitTrailer(payload)
		changes, err := stream.DecodeRecord(record)
		if err != nil {
			r.t.Errorf("shadow: decoding frame %d: %v", seq, err)
			return nil
		}
		if _, err := r.shadow.ApplyBatch(stream.Batch{Changes: changes}); err != nil {
			r.t.Errorf("shadow: frame %d: %v", seq, err)
			return nil
		}
	}
	snap, patches := r.state()
	patched := patches > r.patches
	r.patches = patches
	if !control {
		r.counts.frames.Add(1)
		if patched {
			r.counts.patched.Add(1)
		}
	}

	got := stateOf(snap)
	if want := captureEng(r.shadow); got != want {
		r.t.Errorf("follower differs from full recompute after frame %d (patched %v):\n got %+v\nwant %+v", seq, patched, got, want)
	}
	if r.oracle != nil {
		if want, ok := r.oracle(seq); ok && got != want {
			r.t.Errorf("follower differs from the primary after frame %d:\n got %+v\nwant %+v", seq, got, want)
		}
	}
	for _, nf := range snap.NonFDs {
		if !nf.HasPair {
			continue
		}
		a, okA := r.rows[nf.Witness[0]]
		b, okB := r.rows[nf.Witness[1]]
		if !okA || !okB {
			r.t.Errorf("frame %d: witness %v of %v->%d names a record the history never created", seq, nf.Witness, nf.Lhs, nf.Rhs)
			continue
		}
		agree := a[nf.Rhs] != b[nf.Rhs]
		for _, x := range nf.Lhs {
			agree = agree && a[x] == b[x]
		}
		if !agree {
			r.t.Errorf("frame %d: witness %v (%v, %v) does not violate %v->%d", seq, nf.Witness, a, b, nf.Lhs, nf.Rhs)
		}
	}
	w := witnessesOf(snap)
	pw, logged := r.primary.at(seq)
	if r.matched && patched && logged {
		r.counts.witnessChecks.Add(1)
		if !w.equal(pw) {
			r.t.Errorf("frame %d: delta-fed follower witnesses differ from the primary's:\n got %v\nwant %v", seq, w, pw)
		}
	}
	r.matched = logged && w.equal(pw)
	return nil
}

// engineState reads a durable engine's state for a shadow check.
func engineState(eng *durable.Engine) func() (*core.Snapshot, int) {
	return func() (*core.Snapshot, int) {
		return eng.Core().Snapshot(), eng.Core().Stats().CoverPatches
	}
}

// monitorState reads a durable monitor's state for a shadow check.
func monitorState(t testing.TB, mon *dynfd.DurableMonitor) func() (*core.Snapshot, int) {
	return func() (*core.Snapshot, int) {
		return monitorSnapshot(t, mon), mon.Stats().CoverPatches
	}
}

func monitorSnapshot(t testing.TB, mon *dynfd.DurableMonitor) *core.Snapshot {
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		t.Errorf("saving monitor: %v", err)
		return &core.Snapshot{}
	}
	var saved struct {
		Engine *core.Snapshot `json:"engine"`
	}
	if err := json.Unmarshal(buf.Bytes(), &saved); err != nil {
		t.Errorf("decoding saved monitor: %v", err)
		return &core.Snapshot{}
	}
	return saved.Engine
}

// checkShadow asserts that every frame a shadow-checked follower applied
// was patched from its cover delta and, when frames were expected, that
// some were checked against the primary's witnesses.
func checkShadow(t testing.TB, c *shadowCounts, wantFrames bool) {
	t.Helper()
	frames, patched, checks := c.frames.Load(), c.patched.Load(), c.witnessChecks.Load()
	if patched != frames {
		t.Errorf("follower patched %d of %d frames; every frame carried a cover delta", patched, frames)
	}
	if wantFrames && (frames == 0 || checks == 0) {
		t.Errorf("shadow saw %d frames and %d witness comparisons, want both > 0", frames, checks)
	}
}

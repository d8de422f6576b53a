package repl_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dynfd/internal/core"
	"dynfd/internal/durable"
	"dynfd/internal/faultio"
	"dynfd/internal/fd"
	"dynfd/internal/oracle"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// idState is a node's record-id state: its live ids, ascending, and the
// next id it would assign.
type idState struct {
	live   string
	nextID int64
}

func idsOf(eng *durable.Engine) idState {
	s := eng.Core().Snapshot()
	ids := make([]int64, len(s.Records))
	for i, r := range s.Records {
		ids[i] = r.ID
	}
	return idState{live: fmt.Sprint(ids), nextID: s.NextID}
}

// idCheckReplica asserts the precondition of cover-delta replication:
// after every checkpoint install and every replayed frame, the follower's
// live record ids and NextID equal the primary's at that sequence.
type idCheckReplica struct {
	t       testing.TB
	eng     *durable.Engine
	mu      *sync.Mutex        // the primary's writer lock, held while primary is updated
	primary map[uint64]idState // primary state by sequence
	checks  int
}

func (r *idCheckReplica) Seq() uint64   { return r.eng.Seq() }
func (r *idCheckReplica) Epoch() uint64 { return r.eng.Epoch() }

func (r *idCheckReplica) ApplyReplicated(seq uint64, payload []byte) error {
	if err := r.eng.ApplyReplicated(seq, payload); err != nil {
		return err
	}
	r.check("frame")
	return nil
}

func (r *idCheckReplica) InstallReplicaCheckpoint(blob []byte) error {
	if err := r.eng.InstallCheckpoint(blob); err != nil {
		return err
	}
	r.check("install")
	return nil
}

func (r *idCheckReplica) check(what string) {
	r.checks++
	seq := r.eng.Seq()
	// A frame is shipped once durable, which is inside the writer's
	// critical section: taking the lock waits for its map entry.
	r.mu.Lock()
	want := r.primary[seq]
	r.mu.Unlock()
	if got := idsOf(r.eng); got != want {
		r.t.Errorf("after %s at seq %d: follower ids %+v, primary %+v", what, seq, got, want)
	}
}

// idBatches is a hand-written history that exercises every way a batch
// mints and retires ids: plain inserts, deletes, updates (which retire an
// id and mint a new one), a record born and deleted inside one batch, an
// update of a record born in the same batch, and an update chain.
func idBatches() []stream.Batch {
	ins := func(v ...string) stream.Change { return stream.Change{Kind: stream.Insert, Values: v} }
	del := func(id int64) stream.Change { return stream.Change{Kind: stream.Delete, ID: id} }
	upd := func(id int64, v ...string) stream.Change {
		return stream.Change{Kind: stream.Update, ID: id, Values: v}
	}
	return []stream.Batch{
		{Changes: []stream.Change{ins("a", "x", "1"), ins("b", "x", "2"), ins("c", "y", "1"), ins("d", "y", "2")}}, // ids 0-3
		{Changes: []stream.Change{del(1), upd(2, "c", "z", "1"), ins("e", "z", "3")}},                              // 4, 5
		{Changes: []stream.Change{ins("f", "x", "9"), del(6), ins("g", "y", "3")}},                                 // 6 born and deleted, 7
		{Changes: []stream.Change{ins("h", "x", "4"), upd(8, "h", "y", "4"), upd(9, "h", "z", "4")}},               // 8 → 9 → 10
		{Changes: []stream.Change{upd(0, "a", "x", "5"), upd(11, "a", "y", "5"), del(12), del(3)}},                 // 11 → 12, then gone
		{Changes: []stream.Change{del(4), del(5), del(7), del(10)}},                                                // empty, NextID 13
	}
}

// TestFollowerRecordIDsMatchPrimary is the precondition cover-delta
// replication rests on: a follower's record ids — and therefore the
// witnesses a delta names — are the primary's, after a checkpoint install
// and after every replayed frame, for insert, delete and update batches,
// including records born and deleted inside one batch.
func TestFollowerRecordIDsMatchPrimary(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig()
	// After idBatches the relation is empty again with NextID 13, so a
	// random history follows with its ids shifted by 13.
	batches := idBatches()
	random, _ := genEngineWorkload(t, cfg, 16)
	for _, b := range random {
		for i := range b.Changes {
			if b.Changes[i].Kind != stream.Insert {
				b.Changes[i].ID += 13
			}
		}
		batches = append(batches, b)
	}
	opts := durable.Options{Columns: chaosCols, Config: cfg, CheckpointEvery: -1}

	// A small ring: the follower joins after the primary moved past it, so
	// it must install a checkpoint first, then tail frames.
	p := &chaosPrimary{opts: opts, feedCap: 4, st: faultio.NewMem()}
	if err := p.open(); err != nil {
		t.Fatal(err)
	}
	srv := repl.NewServer(p)
	srv.Heartbeat = 10 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	primary := map[uint64]idState{0: idsOf(p.eng)}
	apply := func(b stream.Batch) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if _, err := p.eng.Apply(b); err != nil {
			t.Fatalf("primary batch: %v", err)
		}
		primary[p.eng.Seq()] = idsOf(p.eng)
	}
	const joinAt = 9
	for _, b := range batches[:joinAt] {
		apply(b)
	}
	// The checkpoint the follower installs is taken at the current sequence.
	p.mu.Lock()
	if err := p.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.mu.Unlock()

	feng, err := durable.Open(faultio.NewMem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := &idCheckReplica{t: t, eng: feng, mu: &p.mu, primary: primary}
	fol, stop := startEngineFollower(t, repl.NewClient(ts.URL, nil), rep)
	waitEngSeq(t, feng, joinAt)
	for _, b := range batches[joinAt:] {
		apply(b)
		waitEngSeq(t, feng, p.eng.Seq())
	}
	stop()
	if fol.Installs() == 0 {
		t.Fatal("follower never installed a checkpoint")
	}
	if want := 1 + len(batches) - joinAt; rep.checks != want {
		t.Fatalf("checked %d installs and frames, want %d", rep.checks, want)
	}
}

// waitEngSeq polls until a durable engine has applied sequence want.
func waitEngSeq(t testing.TB, eng *durable.Engine, want uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for eng.Seq() != want {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at seq %d, want %d", eng.Seq(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerWALMatchesPrimary: the cover delta travels in feed frames
// only. A follower logs the batch bytes it received verbatim, so its WAL
// records — sequence and payload — are byte-identical to the primary's,
// and a delta never reaches either node's disk.
func TestFollowerWALMatchesPrimary(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig()
	batches, _ := genEngineWorkload(t, cfg, 20)
	opts := durable.Options{Columns: chaosCols, Config: cfg, CheckpointEvery: -1}
	p := &chaosPrimary{opts: opts, feedCap: 1024, st: faultio.NewMem()}
	if err := p.open(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := p.apply(b); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := p.feed.Next(0)
	if err != nil || len(frames) != len(batches) {
		t.Fatalf("feed holds %d frames (err %v), want %d", len(frames), err, len(batches))
	}
	fst := faultio.NewMem()
	feng, err := durable.Open(fst, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		if _, _, ok := wal.SplitTrailer(fr.Payload); !ok {
			t.Fatalf("frame %d carries no cover delta", fr.Seq)
		}
		if err := feng.ApplyReplicated(fr.Seq, fr.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := feng.Core().Stats().CoverPatches; got != len(batches) {
		t.Fatalf("follower patched %d of %d batches", got, len(batches))
	}
	plog, err := p.st.ReadLog()
	if err != nil {
		t.Fatal(err)
	}
	flog, err := fst.ReadLog()
	if err != nil {
		t.Fatal(err)
	}
	precs, _ := wal.Scan(plog)
	frecs, _ := wal.Scan(flog)
	if len(precs) != len(batches) || len(frecs) != len(batches) {
		t.Fatalf("WAL records: primary %d, follower %d, want %d each", len(precs), len(frecs), len(batches))
	}
	for i := range precs {
		if precs[i].Seq != frecs[i].Seq || string(precs[i].Payload) != string(frecs[i].Payload) {
			t.Fatalf("WAL record %d differs:\nprimary  %d %q\nfollower %d %q", i, precs[i].Seq, precs[i].Payload, frecs[i].Seq, frecs[i].Payload)
		}
		if _, _, ok := wal.SplitTrailer(precs[i].Payload); ok {
			t.Fatalf("WAL record %d holds a frame trailer", precs[i].Seq)
		}
	}
}

// startEngineFollower replicates eng from client until the returned stop
// function is called (idempotent).
func startEngineFollower(t *testing.T, client *repl.Client, rep repl.Replica) (*repl.Follower, func()) {
	fol := repl.NewFollower(client, "t", rep, repl.FollowerOptions{
		MinBackoff:   time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		HealthyReset: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		if err := <-done; err != nil && err != context.Canceled {
			t.Errorf("follower run: %v", err)
		}
	}
	t.Cleanup(stop)
	return fol, stop
}

// stateOracle expects states[seq-shift] after sequence seq, for seq
// above from.
func stateOracle(states []engState, from, shift uint64) func(seq uint64) (engState, bool) {
	return func(seq uint64) (engState, bool) {
		if seq <= from || seq-shift >= uint64(len(states)) {
			return engState{}, false
		}
		return states[seq-shift], true
	}
}

// relationAfter replays a history from an empty relation and returns the
// live rows.
func relationAfter(batches []stream.Batch) [][]string {
	rows := recordHistory(batches)
	for _, b := range batches {
		for _, c := range b.Changes {
			if c.Kind != stream.Insert {
				delete(rows, c.ID)
			}
		}
	}
	var rel [][]string
	for _, v := range rows {
		rel = append(rel, v)
	}
	return rel
}

// TestDeltaChainedFollowers: a chain A → B → C. B applies A's frames by
// patching and passes the full frames, cover deltas included, on to its
// own feed, so C patches too; C's covers must equal A's after every frame
// and its witnesses must be A's.
func TestDeltaChainedFollowers(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig()
	batches, states := genEngineWorkload(t, cfg, 24)
	opts := durable.Options{Columns: chaosCols, Config: cfg, CheckpointEvery: 5}
	rows := recordHistory(batches)

	a := &chaosPrimary{opts: opts, feedCap: 64, st: faultio.NewMem(), wit: newWitnessLog()}
	if err := a.open(); err != nil {
		t.Fatal(err)
	}
	b := &chaosPrimary{opts: opts, feedCap: 64, st: faultio.NewMem()}
	if err := b.open(); err != nil {
		t.Fatal(err)
	}
	serve := func(src repl.Source) *repl.Client {
		srv := repl.NewServer(src)
		srv.Heartbeat = 10 * time.Millisecond
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return repl.NewClient(ts.URL, nil)
	}
	clientA, clientB := serve(a), serve(b)
	cEng, err := durable.Open(faultio.NewMem(), opts)
	if err != nil {
		t.Fatal(err)
	}

	bCounts, cCounts := &shadowCounts{}, &shadowCounts{}
	_, stopB := startEngineFollower(t, clientA, &shadowReplica{t: t, rep: engReplica{b.eng}, state: engineState(b.eng),
		rows: rows, primary: a.wit, oracle: stateOracle(states, 0, 0), counts: bCounts})
	_, stopC := startEngineFollower(t, clientB, &shadowReplica{t: t, rep: engReplica{cEng}, state: engineState(cEng),
		rows: rows, primary: a.wit, oracle: stateOracle(states, 0, 0), counts: cCounts})
	for _, batch := range batches {
		if err := a.apply(batch); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitEngSeq(t, b.eng, uint64(len(batches)))
	waitEngSeq(t, cEng, uint64(len(batches)))
	stopC()
	stopB()
	checkShadow(t, bCounts, true)
	checkShadow(t, cCounts, true)
	want := states[len(batches)]
	for name, eng := range map[string]*durable.Engine{"B": b.eng, "C": cEng} {
		if got := captureEng(eng.Core()); got != want {
			t.Fatalf("%s diverged:\n got %+v\nwant %+v", name, got, want)
		}
		if err := eng.Core().CheckInvariants(); err != nil {
			t.Fatalf("%s invariants: %v", name, err)
		}
	}
}

// TestDeltaStreamEpochForcedInstall: B and C follow A on cover deltas; A
// takes a divergent tail while partitioned and dies; B — whose covers and
// witnesses came from deltas only — is promoted and runs DynFD from then
// on, matching the brute-force oracle after every batch; C follows B on
// B's own deltas, and A rejoins through an epoch-forced checkpoint install
// in the middle of B's delta stream and then patches B's frames.
func TestDeltaStreamEpochForcedInstall(t *testing.T) {
	t.Parallel()
	const splitAt = 10
	cfg := core.DefaultConfig()
	batches, states := genEngineWorkload(t, cfg, 24)
	opts := durable.Options{Columns: chaosCols, Config: cfg, CheckpointEvery: 3}
	rows := recordHistory(batches)

	a := &chaosPrimary{opts: opts, feedCap: 64, st: faultio.NewMem(), wit: newWitnessLog()}
	if err := a.open(); err != nil {
		t.Fatal(err)
	}
	srvA := repl.NewServer(a)
	srvA.Heartbeat = 10 * time.Millisecond
	tsA := httptest.NewServer(srvA.Handler())
	t.Cleanup(tsA.Close)
	client := repl.NewClient(tsA.URL, nil)
	b := &chaosPrimary{opts: opts, feedCap: 64, st: faultio.NewMem()}
	if err := b.open(); err != nil {
		t.Fatal(err)
	}
	cEng, err := durable.Open(faultio.NewMem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	bCounts, cCounts, aCounts := &shadowCounts{}, &shadowCounts{}, &shadowCounts{}

	// Phase 1: the shared prefix, delta-fed to B and C.
	_, stopB := startEngineFollower(t, client, &shadowReplica{t: t, rep: engReplica{b.eng}, state: engineState(b.eng),
		rows: rows, primary: a.wit, oracle: stateOracle(states, 0, 0), counts: bCounts})
	_, stopC := startEngineFollower(t, client, &shadowReplica{t: t, rep: engReplica{cEng}, state: engineState(cEng),
		rows: rows, primary: a.wit, oracle: stateOracle(states, 0, 0), counts: cCounts})
	for _, batch := range batches[:splitAt] {
		if err := a.apply(batch); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitEngSeq(t, b.eng, splitAt)
	waitEngSeq(t, cEng, splitAt)
	stopB()
	stopC()
	checkShadow(t, bCounts, true)
	checkShadow(t, cCounts, true)
	if b.eng.Core().Stats().Batches != b.eng.Core().Stats().CoverPatches {
		t.Fatalf("B ran %d batches but patched %d: its history must be delta-only", b.eng.Core().Stats().Batches, b.eng.Core().Stats().CoverPatches)
	}

	// Phase 2: A takes a divergent tail nobody receives, then dies.
	for i := 0; i < 3; i++ {
		if err := a.apply(stream.Batch{Changes: []stream.Change{{Kind: stream.Insert, Values: []string{"X", "X", "X"}}}}); err != nil {
			t.Fatal(err)
		}
	}
	tsA.CloseClientConnections()
	tsA.Close()

	// Phase 3: promote the delta-fed B. From here on B runs the sweeps.
	b.mu.Lock()
	epoch, err := b.eng.Promote()
	b.mu.Unlock()
	if err != nil || epoch != 1 {
		t.Fatalf("promoting B: epoch %d, err %v", epoch, err)
	}
	b.wit = newWitnessLog()
	b.wit.record(b.eng.Seq(), b.eng.Core().Snapshot())
	srvB := repl.NewServer(b)
	srvB.Heartbeat = 10 * time.Millisecond
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(tsB.Close)
	client.Repoint(tsB.URL)
	// After the promotion record at splitAt+1, sequence s on B holds the
	// state after batches[:s-1].
	bStates := stateOracle(states, splitAt, 1)
	cCounts = &shadowCounts{}
	_, stopC = startEngineFollower(t, client, &shadowReplica{t: t, rep: engReplica{cEng}, state: engineState(cEng),
		rows: rows, primary: b.wit, oracle: bStates, counts: cCounts})
	folA, stopA := startEngineFollower(t, client, &shadowReplica{t: t, rep: engReplica{a.eng}, state: engineState(a.eng),
		rows: rows, primary: b.wit, oracle: bStates, counts: aCounts})
	// A's rejoin must start from its divergent state: wait until it has
	// installed B's checkpoint, which discards its tail, before B writes on.
	deadline := time.Now().Add(20 * time.Second)
	for folA.Installs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("A never installed a checkpoint")
		}
		time.Sleep(time.Millisecond)
	}

	for i := splitAt; i < len(batches); i++ {
		if err := b.apply(batches[i]); err != nil {
			t.Fatalf("promoted B, batch %d: %v", i, err)
		}
		rel := relationAfter(batches[:i+1])
		if got, want := b.eng.Core().FDs(), oracle.MinimalFDs(rel, len(chaosCols)); !fd.Equal(got, want) {
			t.Fatalf("promoted B after batch %d: FDs %v, oracle %v", i, got, want)
		}
		if got, want := b.eng.Core().NonFDs(), oracle.MaximalNonFDs(rel, len(chaosCols)); !fd.Equal(got, want) {
			t.Fatalf("promoted B after batch %d: non-FDs %v, oracle %v", i, got, want)
		}
		time.Sleep(time.Millisecond)
	}
	final := uint64(len(batches)) + 1
	waitEngSeq(t, cEng, final)
	waitEngSeq(t, a.eng, final)
	stopC()
	stopA()
	checkShadow(t, cCounts, true)
	checkShadow(t, aCounts, true)
	if s := b.eng.Core().Stats(); s.Batches-s.CoverPatches != len(batches)-splitAt {
		t.Fatalf("promoted B ran the sweeps on %d batches, want %d", s.Batches-s.CoverPatches, len(batches)-splitAt)
	}
	want := states[len(batches)]
	for name, eng := range map[string]*durable.Engine{"B": b.eng, "C": cEng, "A": a.eng} {
		if got := captureEng(eng.Core()); got != want {
			t.Fatalf("%s diverged:\n got %+v\nwant %+v", name, got, want)
		}
		if err := eng.Core().CheckInvariants(); err != nil {
			t.Fatalf("%s invariants: %v", name, err)
		}
	}
}

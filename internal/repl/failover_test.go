package repl_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dynfd/internal/core"
	"dynfd/internal/durable"
	"dynfd/internal/faultio"
	"dynfd/internal/repl"
	"dynfd/internal/stream"
	"dynfd/internal/wal"
)

// TestFailoverChaosConvergence is the failover chaos battery (DESIGN.md
// §16). A fault-injected primary A feeds followers B and C, crashing and
// recovering at scripted faultio points; then the link is cut, A keeps
// acking batches it can no longer ship (the divergent tail), and A is
// killed for good. B is promoted — a durable, in-band epoch bump — C
// adopts the new epoch from the stream without a checkpoint install, A
// rejoins as a follower of B and must DISCARD its divergent tail through
// the epoch-forced install, and every node must converge bit-identically
// to the no-crash oracle. Run under -race in CI.
func TestFailoverChaosConvergence(t *testing.T) {
	const (
		numBatches = 24
		splitAt    = 10 // batches shipped to the whole cluster before the failover
	)
	cfg := core.DefaultConfig()
	batches, states := genEngineWorkload(t, cfg, numBatches)
	baseOpts := durable.Options{Columns: chaosCols, Config: cfg, CheckpointEvery: 3}

	// Fault-free probe: storage units for the full run, the yardstick for
	// placing A's crash points.
	probe := faultio.NewMem()
	probeOpts := baseOpts
	probeOpts.Feed = repl.NewFeed(0, 6)
	peng, err := durable.Open(probe, probeOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := peng.Apply(b); err != nil {
			t.Fatalf("probe batch %d: %v", i, err)
		}
	}
	total := probe.Units()
	if total == 0 {
		t.Fatal("probe consumed no storage units")
	}

	scenarios := []struct {
		name        string
		primaryFrac float64 // fraction of total units until A dies (>1: only the final kill)
		keep        int     // unsynced WAL bytes surviving each crash
	}{
		{"calm-until-kill", 2.0, 0},
		{"crash-mid-stream-drop-unsynced", 0.3, 0},
		{"crash-late-keep-all", 0.55, 1 << 20},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			a := &chaosPrimary{opts: baseOpts, feedCap: 6}
			a.st = faultio.NewMemCrashAt(int64(float64(total) * sc.primaryFrac))
			for a.open() != nil {
				a.st = a.st.Reopen(sc.keep)
			}
			srvA := repl.NewServer(a)
			srvA.Heartbeat = 10 * time.Millisecond
			tsA := httptest.NewServer(srvA.Handler())
			client := repl.NewClient(tsA.URL, nil)

			// B gets a warm feed from the start so its promotion can serve
			// followers without reopening anything; C is a plain replica.
			b := &chaosPrimary{opts: baseOpts, feedCap: 6, st: faultio.NewMem()}
			if err := b.open(); err != nil {
				t.Fatal(err)
			}
			cEng, err := durable.Open(faultio.NewMem(), baseOpts)
			if err != nil {
				t.Fatal(err)
			}

			folOpts := repl.FollowerOptions{
				MinBackoff:   time.Millisecond,
				MaxBackoff:   20 * time.Millisecond,
				HealthyReset: 20 * time.Millisecond,
			}
			start := func(eng *durable.Engine) (*repl.Follower, func()) {
				fol := repl.NewFollower(client, "t", engReplica{eng}, folOpts)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- fol.Run(ctx) }()
				stopped := false // stop is idempotent: called explicitly to quiesce, again via defer
				return fol, func() {
					if stopped {
						return
					}
					stopped = true
					cancel()
					if err := <-done; err != nil && err != context.Canceled {
						t.Errorf("follower run: %v", err)
					}
				}
			}
			waitSeqEpoch := func(eng *durable.Engine, seq, epoch uint64, what string) {
				t.Helper()
				deadline := time.Now().Add(30 * time.Second)
				for eng.Seq() != seq || eng.Epoch() != epoch {
					if time.Now().After(deadline) {
						t.Fatalf("%s stuck at seq %d epoch %d, want %d/%d",
							what, eng.Seq(), eng.Epoch(), seq, epoch)
					}
					time.Sleep(time.Millisecond)
				}
			}

			// Phase 1: ship the shared prefix through A, riding out its
			// scripted crashes like a production restart loop.
			acked, recoveries := 0, 0
			for acked < splitAt {
				a.mu.Lock()
				_, err := a.eng.Apply(batches[acked])
				a.mu.Unlock()
				if err == nil {
					acked++
					continue
				}
				if recoveries++; recoveries > 5 {
					t.Fatalf("batch %d kept failing after %d recoveries: %v", acked, recoveries, err)
				}
				a.st = a.st.Reopen(sc.keep)
				for a.open() != nil {
					a.st = a.st.Reopen(sc.keep)
				}
				rec := int(a.eng.Seq())
				if rec < acked {
					t.Fatalf("recovery lost acked batches: recovered seq %d < acked %d", rec, acked)
				}
				acked = rec
			}
			_, stopB := start(b.eng)
			folC, stopC := start(cEng)
			waitSeqEpoch(b.eng, splitAt, 0, "follower B")
			waitSeqEpoch(cEng, splitAt, 0, "follower C")

			// Phase 2: partition. With no follower attached, A keeps acking
			// batches it will never ship — the divergent tail a failover must
			// throw away, never merge.
			stopB()
			stopC()
			divergent := make([]stream.Batch, 3)
			for i := range divergent {
				divergent[i] = stream.Batch{Changes: []stream.Change{
					{Kind: stream.Insert, Values: []string{"X", "X", "X"}},
				}}
			}
			applied := 0
			for applied < len(divergent) {
				a.mu.Lock()
				_, err := a.eng.Apply(divergent[applied])
				a.mu.Unlock()
				if err == nil {
					applied++
					continue
				}
				if recoveries++; recoveries > 5 {
					t.Fatalf("divergent batch %d kept failing: %v", applied, err)
				}
				a.st = a.st.Reopen(sc.keep)
				for a.open() != nil {
					a.st = a.st.Reopen(sc.keep)
				}
				applied = int(a.eng.Seq()) - splitAt
				if applied < 0 {
					t.Fatalf("recovery lost acked batches: recovered seq %d", a.eng.Seq())
				}
			}

			// Kill A for good; promote B.
			tsA.CloseClientConnections()
			tsA.Close()
			b.mu.Lock()
			epoch, err := b.eng.Promote()
			b.mu.Unlock()
			if err != nil {
				t.Fatalf("promoting B: %v", err)
			}
			if epoch != 1 {
				t.Fatalf("promotion epoch = %d, want 1", epoch)
			}
			srvB := repl.NewServer(b)
			srvB.Heartbeat = 10 * time.Millisecond
			tsB := httptest.NewServer(srvB.Handler())
			defer tsB.Close()
			client.Repoint(tsB.URL)

			// C re-attaches at the old epoch from before the epoch start, so
			// the promotion record must arrive IN-BAND — stream only, no
			// checkpoint install.
			folC, stopC = start(cEng)
			defer stopC()
			waitSeqEpoch(cEng, splitAt+1, 1, "follower C (promotion)")
			if n := folC.Installs(); n != 0 {
				t.Fatalf("follower C took %d checkpoint installs; the promotion must ship in-band", n)
			}

			// A rejoins as a follower of the winner. Its recovered history
			// holds acked frames past B's epoch start, so the tail handshake
			// diverges (410) and only the epoch-forced checkpoint install —
			// which discards the tail — can bring it back.
			a.st = a.st.Reopen(sc.keep)
			for a.open() != nil {
				a.st = a.st.Reopen(sc.keep)
			}
			if got := a.eng.Seq(); got != splitAt+uint64(len(divergent)) {
				t.Fatalf("rejoining A recovered seq %d, want %d", got, splitAt+len(divergent))
			}
			folA, stopA := start(a.eng)
			defer stopA()

			// Phase 3: the surviving history continues on B.
			for i := splitAt; i < numBatches; i++ {
				b.mu.Lock()
				_, err := b.eng.Apply(batches[i])
				b.mu.Unlock()
				if err != nil {
					t.Fatalf("new primary batch %d: %v", i, err)
				}
			}
			finalSeq := uint64(numBatches) + 1 // +1: the promotion record took a sequence

			waitSeqEpoch(cEng, finalSeq, 1, "follower C")
			waitSeqEpoch(a.eng, finalSeq, 1, "rejoined A")

			// Quiesce the followers before touching engine cores directly:
			// Seq() lands before an install finishes publishing, and
			// CheckInvariants mutates lattice internals, so comparing cores
			// while a replay goroutine is mid-install is a data race.
			stopC()
			stopA()
			// Only now read A's install count: an install publishes its
			// sequence before it counts itself, and the stops joined the
			// replay goroutines.
			if folA.Installs() == 0 {
				t.Fatal("rejoined A never installed a checkpoint; its divergent tail cannot have been discarded")
			}

			// Oracle equivalence: the oracle never saw the divergent inserts,
			// so matching it proves the tail was discarded — on every node.
			want := states[numBatches]
			for _, node := range []struct {
				name string
				eng  *durable.Engine
			}{{"new primary B", b.eng}, {"follower C", cEng}, {"rejoined A", a.eng}} {
				if got := captureEng(node.eng.Core()); got != want {
					t.Fatalf("%s diverged:\n got %+v\nwant %+v", node.name, got, want)
				}
				if err := node.eng.Core().CheckInvariants(); err != nil {
					t.Fatalf("%s invariants: %v", node.name, err)
				}
			}
		})
	}
}

// staticReplica is an inert replica for connection-behavior tests: it
// absorbs frames without state.
type staticReplica struct{ seq, epoch uint64 }

func (r *staticReplica) Seq() uint64                                { return r.seq }
func (r *staticReplica) Epoch() uint64                              { return r.epoch }
func (r *staticReplica) ApplyReplicated(seq uint64, p []byte) error { return nil }
func (r *staticReplica) InstallReplicaCheckpoint(blob []byte) error { return nil }

// heartbeatServer serves the tail endpoint with scripted stream lifetimes:
// each request receives one heartbeat frame immediately and, when hold is
// set, a second one after the hold — so a stream lives ~hold long.
func heartbeatServer(hold time.Duration) (*httptest.Server, *atomic.Int64) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(wal.AppendRecord(nil, 7, nil))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if hold > 0 {
			time.Sleep(hold)
			w.Write(wal.AppendRecord(nil, 7, nil))
		}
	}))
	return ts, &attempts
}

// TestBackoffHoldsDespiteFirstFrame is the reconnect-backoff regression:
// a primary that dies right after the handshake still delivers one frame
// per attempt, and that first frame must NOT reset the backoff — only a
// stream that stays open for HealthyReset does. The buggy reset-on-frame
// behavior reconnects at MinBackoff forever, hammering the dying primary
// hundreds of times in this window instead of a handful.
func TestBackoffHoldsDespiteFirstFrame(t *testing.T) {
	ts, attempts := heartbeatServer(0) // streams die instantly after one frame
	defer ts.Close()
	fol := repl.NewFollower(repl.NewClient(ts.URL, nil), "t", &staticReplica{seq: 7}, repl.FollowerOptions{
		MinBackoff:   2 * time.Millisecond,
		MaxBackoff:   200 * time.Millisecond,
		HealthyReset: 10 * time.Second, // nothing in this test counts as healthy
	})
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	if err := fol.Run(ctx); err != context.DeadlineExceeded && err != context.Canceled {
		t.Fatalf("follower run: %v", err)
	}
	ts.CloseClientConnections()
	if n := attempts.Load(); n < 2 || n > 50 {
		t.Fatalf("%d connect attempts in 600ms; backoff must keep doubling when every stream dies young (expect <= ~12)", n)
	}
}

// TestBackoffResetsAfterSustainedHealthyStream is the flip side: streams
// that stay open past HealthyReset reset the backoff to MinBackoff, so a
// follower of a healthy-but-restarting primary re-attaches immediately
// instead of paying an ever-grown backoff from trouble long past.
func TestBackoffResetsAfterSustainedHealthyStream(t *testing.T) {
	ts, attempts := heartbeatServer(40 * time.Millisecond) // streams live ~40ms
	defer ts.Close()
	fol := repl.NewFollower(repl.NewClient(ts.URL, nil), "t", &staticReplica{seq: 7}, repl.FollowerOptions{
		MinBackoff:   2 * time.Millisecond,
		MaxBackoff:   800 * time.Millisecond,
		HealthyReset: 15 * time.Millisecond, // every stream counts as healthy
	})
	ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
	defer cancel()
	if err := fol.Run(ctx); err != context.DeadlineExceeded && err != context.Canceled {
		t.Fatalf("follower run: %v", err)
	}
	ts.CloseClientConnections()
	if n := attempts.Load(); n < 6 {
		t.Fatalf("%d connect attempts in 800ms; healthy ~40ms streams must reset the backoff (expect ~18)", n)
	}
}
